// Package packet defines the byte-accurate wire formats that travel across
// the simulated fabric, and the decoding machinery used by the capture
// toolkit. The design follows the gopacket idioms: packets decompose into
// typed layers, flows are hashable endpoint pairs, and every header has a
// marshal/unmarshal pair so that throughput is always computed from real
// wire bytes.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4-style 32-bit address.
type Addr uint32

// String renders the address in dotted-quad form.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// MustParseAddr parses "a.b.c.d"; it panics on malformed input and exists for
// topology literals in tests and profiles.
func MustParseAddr(s string) Addr {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		panic(fmt.Sprintf("packet: bad address %q", s))
	}
	var a Addr
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			panic(fmt.Sprintf("packet: bad address %q", s))
		}
		a = a<<8 | Addr(v)
	}
	return a
}

// Proto is the IP protocol number.
type Proto uint8

const (
	ProtoICMP Proto = 1
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
)

func (p Proto) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	}
	return fmt.Sprintf("proto-%d", uint8(p))
}

// Header sizes on the wire, in bytes.
const (
	IPv4HeaderLen = 20
	UDPHeaderLen  = 8
	TCPHeaderLen  = 20
	ICMPHeaderLen = 8
)

// TCP flag bits.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
)

// ICMP message types (subset).
const (
	ICMPEchoReply      = 0
	ICMPEchoRequest    = 8
	ICMPTimeExceeded   = 11
	ICMPDestUnreach    = 3
	ICMPPortUnreachTag = 3 // code under DestUnreach
)

// IPv4 is the network-layer header.
type IPv4 struct {
	TTL      uint8
	Protocol Proto
	Src, Dst Addr
	ID       uint16
	TotalLen uint16 // filled during marshal
}

// UDP is the datagram transport header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16 // header+payload, filled during marshal
}

// TCP is the stream transport header.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
}

// HasFlag reports whether all bits in f are set.
func (t *TCP) HasFlag(f uint8) bool { return t.Flags&f == f }

// ICMP is the control-message header. For echo, ID/Seq identify the probe;
// for time-exceeded / unreachable, Quoted carries the first bytes of the
// offending packet as real ICMP does.
type ICMP struct {
	Type, Code uint8
	ID, Seq    uint16
}

// Packet is a fully decoded wire packet: an IPv4 layer plus exactly one
// transport layer and an opaque application payload.
type Packet struct {
	IP      IPv4
	UDP     *UDP
	TCP     *TCP
	ICMP    *ICMP
	Payload []byte
}

// HeaderLen returns the size of the IPv4 and transport headers Marshal
// writes in front of the payload.
func (p *Packet) HeaderLen() int {
	switch {
	case p.UDP != nil:
		return IPv4HeaderLen + UDPHeaderLen
	case p.TCP != nil:
		return IPv4HeaderLen + TCPHeaderLen
	case p.ICMP != nil:
		return IPv4HeaderLen + ICMPHeaderLen
	}
	return IPv4HeaderLen
}

// WireLen returns the marshaled size in bytes without serializing.
func (p *Packet) WireLen() int { return p.HeaderLen() + len(p.Payload) }

// MaxWireLen is the largest frame the 16-bit IPv4 total-length field can
// describe.
const MaxWireLen = 0xffff

// Clone deep-copies the packet (payload included) so queued copies cannot
// alias a buffer the sender later mutates.
func (p *Packet) Clone() *Packet {
	q := *p
	if p.UDP != nil {
		u := *p.UDP
		q.UDP = &u
	}
	if p.TCP != nil {
		t := *p.TCP
		q.TCP = &t
	}
	if p.ICMP != nil {
		i := *p.ICMP
		q.ICMP = &i
	}
	if p.Payload != nil {
		q.Payload = append([]byte(nil), p.Payload...)
	}
	return &q
}

// internetChecksum is the ones-complement sum used by IPv4/ICMP.
func internetChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// Marshal serializes the packet to wire bytes, computing lengths and the
// IPv4 header checksum.
func (p *Packet) Marshal() []byte {
	return p.MarshalTo(nil)
}

// MarshalTo is Marshal into dst's backing array when its capacity suffices
// (dst is truncated first), allocating only on growth: the header write
// (PutHeader) plus the payload copy.
func (p *Packet) MarshalTo(dst []byte) []byte {
	need := p.WireLen()
	var buf []byte
	if cap(dst) >= need {
		buf = dst[:need]
	} else {
		buf = make([]byte, need)
	}
	copy(buf[p.PutHeader(buf):], p.Payload)
	return buf
}

// PutHeader writes the packet's IPv4 and transport headers, computing lengths
// and the IPv4 header checksum, into the first HeaderLen bytes of wire and
// returns HeaderLen, the offset at which the payload belongs. wire must hold
// at least HeaderLen bytes; the bytes after the header are not touched. The
// fabric keeps each packet's payload at this offset in its buffer and writes
// the header in front of it only where a capture tap reads the frame.
//
// A frame longer than MaxWireLen panics: wrapping the total-length field
// would emit a frame whose decode sees an inconsistent length, and every
// sender segments far below it, so reaching it is a caller bug.
func (p *Packet) PutHeader(wire []byte) int {
	hl := p.HeaderLen()
	total := hl + len(p.Payload)
	if total > MaxWireLen {
		panic("packet: frame exceeds IPv4 total-length field")
	}
	buf := wire[:hl]
	// IPv4 header. Every header byte below is written explicitly or zeroed
	// here (TOS, fragment word, per-transport checksum/urgent bytes), so a
	// dirty reused buffer serializes identically to a fresh one.
	buf[0] = 0x45         // version 4, IHL 5
	buf[1] = 0            // TOS
	buf[6], buf[7] = 0, 0 // fragment word
	binary.BigEndian.PutUint16(buf[2:4], uint16(total))
	binary.BigEndian.PutUint16(buf[4:6], p.IP.ID)
	buf[8] = p.IP.TTL
	buf[9] = uint8(p.IP.Protocol)
	binary.BigEndian.PutUint32(buf[12:16], uint32(p.IP.Src))
	binary.BigEndian.PutUint32(buf[16:20], uint32(p.IP.Dst))
	binary.BigEndian.PutUint16(buf[10:12], 0)
	binary.BigEndian.PutUint16(buf[10:12], internetChecksum(buf[:IPv4HeaderLen]))
	off := IPv4HeaderLen
	switch {
	case p.UDP != nil:
		binary.BigEndian.PutUint16(buf[off:], p.UDP.SrcPort)
		binary.BigEndian.PutUint16(buf[off+2:], p.UDP.DstPort)
		binary.BigEndian.PutUint16(buf[off+4:], uint16(UDPHeaderLen+len(p.Payload)))
		buf[off+6], buf[off+7] = 0, 0 // checksum (unused by the lab)
	case p.TCP != nil:
		binary.BigEndian.PutUint16(buf[off:], p.TCP.SrcPort)
		binary.BigEndian.PutUint16(buf[off+2:], p.TCP.DstPort)
		binary.BigEndian.PutUint32(buf[off+4:], p.TCP.Seq)
		binary.BigEndian.PutUint32(buf[off+8:], p.TCP.Ack)
		buf[off+12] = 5 << 4 // data offset
		buf[off+13] = p.TCP.Flags
		binary.BigEndian.PutUint16(buf[off+14:], p.TCP.Window)
		buf[off+16], buf[off+17] = 0, 0 // checksum (unused by the lab)
		buf[off+18], buf[off+19] = 0, 0 // urgent pointer
	case p.ICMP != nil:
		buf[off] = p.ICMP.Type
		buf[off+1] = p.ICMP.Code
		buf[off+2], buf[off+3] = 0, 0 // checksum (unused by the lab)
		binary.BigEndian.PutUint16(buf[off+4:], p.ICMP.ID)
		binary.BigEndian.PutUint16(buf[off+6:], p.ICMP.Seq)
	}
	return hl
}

var (
	errShort        = errors.New("packet: truncated")
	errBadVersion   = errors.New("packet: not IPv4")
	errBadLen       = errors.New("packet: inconsistent length")
	errChecksum     = errors.New("packet: bad IPv4 checksum")
	errNonCanonical = errors.New("packet: non-canonical wire form")
)

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// validateWire runs every structural check Decode enforces without touching
// the heap. It is the single source of truth for "does this byte string decode":
// Decode and PeekFlow both gate on it, so the two can never disagree about
// validity (capture depends on that — a record is classified exactly once,
// at tap time).
func validateWire(b []byte) error {
	if len(b) < IPv4HeaderLen {
		return errShort
	}
	if b[0]>>4 != 4 {
		return errBadVersion
	}
	if b[0] != 0x45 || b[1] != 0 || b[6] != 0 || b[7] != 0 {
		return errNonCanonical
	}
	if int(binary.BigEndian.Uint16(b[2:4])) != len(b) {
		return errBadLen
	}
	if internetChecksum(b[:IPv4HeaderLen]) != 0 {
		return errChecksum
	}
	rest := b[IPv4HeaderLen:]
	switch Proto(b[9]) {
	case ProtoUDP:
		if len(rest) < UDPHeaderLen {
			return errShort
		}
		if int(binary.BigEndian.Uint16(rest[4:6])) != len(rest) {
			return errBadLen
		}
		if rest[6] != 0 || rest[7] != 0 { // checksum: always zero in the lab
			return errNonCanonical
		}
	case ProtoTCP:
		if len(rest) < TCPHeaderLen {
			return errShort
		}
		if rest[12] != 5<<4 || !allZero(rest[16:20]) { // data offset, checksum, urgent
			return errNonCanonical
		}
	case ProtoICMP:
		if len(rest) < ICMPHeaderLen {
			return errShort
		}
		if rest[2] != 0 || rest[3] != 0 { // checksum: always zero in the lab
			return errNonCanonical
		}
	}
	return nil
}

// Decode parses wire bytes into a Packet, validating structure and the IPv4
// checksum. Unknown transport protocols decode with the remainder as
// payload and all transport layers nil.
//
// Decode accepts exactly the image of Marshal (the codec hardening
// contract, DESIGN §4.10): fields Marshal emits as constants — IHL 5, TOS
// 0, the fragment word, transport checksums the lab leaves zero, the TCP
// data offset and urgent pointer — are validated, so Marshal(Decode(b)) is
// byte-identical to b for every b that decodes.
func Decode(b []byte) (*Packet, error) {
	if err := validateWire(b); err != nil {
		return nil, err
	}
	p := &Packet{IP: IPv4{
		TTL:      b[8],
		Protocol: Proto(b[9]),
		ID:       binary.BigEndian.Uint16(b[4:6]),
		Src:      Addr(binary.BigEndian.Uint32(b[12:16])),
		Dst:      Addr(binary.BigEndian.Uint32(b[16:20])),
		TotalLen: binary.BigEndian.Uint16(b[2:4]),
	}}
	rest := b[IPv4HeaderLen:]
	switch p.IP.Protocol {
	case ProtoUDP:
		p.UDP = &UDP{
			SrcPort: binary.BigEndian.Uint16(rest[0:2]),
			DstPort: binary.BigEndian.Uint16(rest[2:4]),
			Length:  binary.BigEndian.Uint16(rest[4:6]),
		}
		rest = rest[UDPHeaderLen:]
	case ProtoTCP:
		p.TCP = &TCP{
			SrcPort: binary.BigEndian.Uint16(rest[0:2]),
			DstPort: binary.BigEndian.Uint16(rest[2:4]),
			Seq:     binary.BigEndian.Uint32(rest[4:8]),
			Ack:     binary.BigEndian.Uint32(rest[8:12]),
			Flags:   rest[13],
			Window:  binary.BigEndian.Uint16(rest[14:16]),
		}
		rest = rest[TCPHeaderLen:]
	case ProtoICMP:
		p.ICMP = &ICMP{
			Type: rest[0],
			Code: rest[1],
			ID:   binary.BigEndian.Uint16(rest[4:6]),
			Seq:  binary.BigEndian.Uint16(rest[6:8]),
		}
		rest = rest[ICMPHeaderLen:]
	}
	p.Payload = append([]byte(nil), rest...)
	return p, nil
}

// PeekFlow extracts the flow key (protocol, endpoints, ports) of a wire
// frame without decoding it, in zero allocations. The validation is exactly
// Decode's — ok is true if and only if Decode(b) would succeed, and the
// returned Flow equals FlowOf(Decode(b)) — so capture can classify packets
// at tap time straight from header bytes and trust the classification to
// stand in for a full decode. ICMP and unknown transports yield port-zero
// endpoints, as FlowOf does.
func PeekFlow(b []byte) (Flow, bool) {
	if validateWire(b) != nil {
		return Flow{}, false
	}
	f := Flow{
		Proto: Proto(b[9]),
		Src:   Endpoint{Addr: Addr(binary.BigEndian.Uint32(b[12:16]))},
		Dst:   Endpoint{Addr: Addr(binary.BigEndian.Uint32(b[16:20]))},
	}
	switch f.Proto {
	case ProtoUDP, ProtoTCP:
		rest := b[IPv4HeaderLen:]
		f.Src.Port = binary.BigEndian.Uint16(rest[0:2])
		f.Dst.Port = binary.BigEndian.Uint16(rest[2:4])
	}
	return f, true
}

// Endpoint is one side of a flow: an address/port pair. It is comparable and
// therefore usable as a map key, following the gopacket Endpoint design.
type Endpoint struct {
	Addr Addr
	Port uint16
}

func (e Endpoint) String() string { return fmt.Sprintf("%v:%d", e.Addr, e.Port) }

// Flow identifies a unidirectional transport conversation.
type Flow struct {
	Proto    Proto
	Src, Dst Endpoint
}

// FlowOf extracts the flow of a decoded packet. ICMP and unknown transports
// yield port-zero endpoints.
func FlowOf(p *Packet) Flow {
	f := Flow{Proto: p.IP.Protocol, Src: Endpoint{Addr: p.IP.Src}, Dst: Endpoint{Addr: p.IP.Dst}}
	switch {
	case p.UDP != nil:
		f.Src.Port, f.Dst.Port = p.UDP.SrcPort, p.UDP.DstPort
	case p.TCP != nil:
		f.Src.Port, f.Dst.Port = p.TCP.SrcPort, p.TCP.DstPort
	}
	return f
}

// Reverse returns the opposite direction of the flow.
func (f Flow) Reverse() Flow {
	return Flow{Proto: f.Proto, Src: f.Dst, Dst: f.Src}
}

// FastHash returns a symmetric (direction-independent) non-cryptographic
// hash: A→B and B→A hash identically, as in gopacket, so both directions of
// a conversation land in the same bucket.
func (f Flow) FastHash() uint64 {
	a := uint64(f.Src.Addr)<<16 | uint64(f.Src.Port)
	b := uint64(f.Dst.Addr)<<16 | uint64(f.Dst.Port)
	if a > b {
		a, b = b, a
	}
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(a)
	mix(b)
	mix(uint64(f.Proto))
	return h
}

func (f Flow) String() string {
	return fmt.Sprintf("%v %v->%v", f.Proto, f.Src, f.Dst)
}
