package packet

import (
	"encoding/binary"
	"errors"
)

// Application-layer framing decoded by the capture toolkit: TLS records (the
// HTTPS control channels) and RTP/RTCP (the Hubs WebRTC voice channel).

// TLS record content types (subset).
const (
	TLSHandshake       = 22
	TLSApplicationData = 23
	TLSRecordHeaderLen = 5
	// TLSRecordOverhead is the per-record ciphertext expansion of an
	// AES-GCM AEAD: 8-byte explicit nonce + 16-byte tag.
	TLSRecordOverhead = 24
	// MaxTLSPlaintext is the RFC 8446 per-record plaintext ceiling (2^14).
	// MarshalTLSRecord splits longer bodies across records exactly as real
	// TLS does; before this bound existed, a body over 65511 bytes silently
	// wrapped the 16-bit record length and desynced the receiver.
	MaxTLSPlaintext = 16384
)

// TLSRecord is one TLS record header plus its (opaque) body length.
type TLSRecord struct {
	ContentType uint8
	BodyLen     int
}

// MarshalTLSRecord frames body bytes as one or more TLS records of the
// given content type, each including AEAD expansion. Bodies longer than
// MaxTLSPlaintext are split across consecutive records (real TLS
// fragmentation), so the 16-bit record length can never wrap. The body
// itself is appended verbatim; the simulation does not need real
// encryption, only real sizes.
func MarshalTLSRecord(contentType uint8, body []byte) []byte {
	records := max(1, (len(body)+MaxTLSPlaintext-1)/MaxTLSPlaintext)
	out := make([]byte, 0, len(body)+records*(TLSRecordHeaderLen+TLSRecordOverhead))
	return AppendTLSRecord(out, contentType, body)
}

// AppendTLSRecord appends MarshalTLSRecord's image of body to dst and
// returns the extended slice; with enough capacity in dst it allocates
// nothing. body must not overlap dst's spare capacity.
func AppendTLSRecord(dst []byte, contentType uint8, body []byte) []byte {
	for {
		n := min(len(body), MaxTLSPlaintext)
		dst = appendOneTLSRecord(dst, contentType, body[:n])
		if body = body[n:]; len(body) == 0 {
			return dst
		}
	}
}

// appendOneTLSRecord appends a single record framing body (which must fit
// MaxTLSPlaintext) to dst.
func appendOneTLSRecord(dst []byte, contentType uint8, body []byte) []byte {
	dst = append(dst, contentType, 3, 3) // TLS 1.2 wire version
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(body)+TLSRecordOverhead))
	dst = append(dst, body...)
	var aead [TLSRecordOverhead]byte // explicit nonce and tag: zero in this lab
	return append(dst, aead[:]...)
}

// Errors distinguishing an incomplete TLS record (feed more bytes) from a
// structurally invalid one (the stream is corrupt and must be dropped).
var (
	ErrTLSShort     = errors.New("packet: truncated TLS record")
	ErrTLSMalformed = errors.New("packet: malformed TLS record")
)

// DecodeTLSRecord parses one record from the front of b, returning the
// record, the plaintext body, and the remaining bytes. ErrTLSShort means b
// is a valid but incomplete prefix; ErrTLSMalformed means no completion of
// b can be a record MarshalTLSRecord produced — the length field is below
// the AEAD overhead or above the plaintext ceiling, the protocol version is
// wrong, or the AEAD expansion bytes (zero in this lab) are corrupted.
func DecodeTLSRecord(b []byte) (TLSRecord, []byte, []byte, error) {
	if len(b) < TLSRecordHeaderLen {
		return TLSRecord{}, nil, nil, ErrTLSShort
	}
	if b[1] != 3 || b[2] != 3 {
		return TLSRecord{}, nil, nil, ErrTLSMalformed
	}
	n := int(binary.BigEndian.Uint16(b[3:5]))
	if n < TLSRecordOverhead || n-TLSRecordOverhead > MaxTLSPlaintext {
		return TLSRecord{}, nil, nil, ErrTLSMalformed
	}
	if len(b) < TLSRecordHeaderLen+n {
		return TLSRecord{}, nil, nil, ErrTLSShort
	}
	if !allZero(b[TLSRecordHeaderLen+n-TLSRecordOverhead : TLSRecordHeaderLen+n]) {
		return TLSRecord{}, nil, nil, ErrTLSMalformed
	}
	rec := TLSRecord{ContentType: b[0], BodyLen: n}
	body := b[TLSRecordHeaderLen : TLSRecordHeaderLen+n-TLSRecordOverhead]
	rest := b[TLSRecordHeaderLen+n:]
	return rec, body, rest, nil
}

// RTP constants.
const (
	RTPHeaderLen  = 12
	RTCPHeaderLen = 8
	// SRTPAuthTagLen is the SRTP authentication tag appended to secure RTP.
	SRTPAuthTagLen = 10
	// RTPPayloadOpus is the dynamic payload type used for Opus voice.
	RTPPayloadOpus = 111
	// RTCPSenderReport / RTCPReceiverReport packet types.
	RTCPSenderReport   = 200
	RTCPReceiverReport = 201
)

// RTPHeader is the fixed RTP header.
type RTPHeader struct {
	PayloadType uint8
	Seq         uint16
	Timestamp   uint32
	SSRC        uint32
	Marker      bool
}

// MarshalRTP frames a payload as an SRTP packet (RTP header + payload +
// auth tag).
func MarshalRTP(h RTPHeader, payload []byte) []byte {
	out := make([]byte, RTPHeaderLen+len(payload)+SRTPAuthTagLen)
	out[0] = 2 << 6 // version 2
	pt := h.PayloadType & 0x7f
	if h.Marker {
		pt |= 0x80
	}
	out[1] = pt
	binary.BigEndian.PutUint16(out[2:4], h.Seq)
	binary.BigEndian.PutUint32(out[4:8], h.Timestamp)
	binary.BigEndian.PutUint32(out[8:12], h.SSRC)
	copy(out[RTPHeaderLen:], payload)
	return out
}

var (
	errRTPShort     = errors.New("packet: truncated RTP")
	errRTPMalformed = errors.New("packet: malformed RTP")
)

// DecodeRTP parses an SRTP packet, returning the header and voice payload.
// The first octet must be exactly version 2 with no padding, extension, or
// CSRC list (all the lab's sender emits), and the trailing auth tag must be
// zero — the lab's stand-in for a tag that verified.
func DecodeRTP(b []byte) (RTPHeader, []byte, error) {
	if len(b) < RTPHeaderLen+SRTPAuthTagLen {
		return RTPHeader{}, nil, errRTPShort
	}
	if b[0] != 2<<6 {
		return RTPHeader{}, nil, errRTPMalformed
	}
	if !allZero(b[len(b)-SRTPAuthTagLen:]) {
		return RTPHeader{}, nil, errRTPMalformed
	}
	h := RTPHeader{
		PayloadType: b[1] & 0x7f,
		Marker:      b[1]&0x80 != 0,
		Seq:         binary.BigEndian.Uint16(b[2:4]),
		Timestamp:   binary.BigEndian.Uint32(b[4:8]),
		SSRC:        binary.BigEndian.Uint32(b[8:12]),
	}
	return h, b[RTPHeaderLen : len(b)-SRTPAuthTagLen], nil
}

// RTCPPacket is a minimal sender/receiver report used for WebRTC RTT
// estimation (the paper reads RTT from chrome://webrtc-internals; our
// equivalent computes it from LSR/DLSR in these reports).
type RTCPPacket struct {
	Type uint8 // RTCPSenderReport or RTCPReceiverReport
	SSRC uint32
	// LSR is the middle 32 bits of the NTP timestamp of the last sender
	// report received; DLSR is the delay since receiving it, in 1/65536 s.
	LSR, DLSR uint32
}

// MarshalRTCP frames a report.
func MarshalRTCP(p RTCPPacket) []byte {
	out := make([]byte, RTCPHeaderLen+8)
	out[0] = 2 << 6
	out[1] = p.Type
	binary.BigEndian.PutUint16(out[2:4], uint16(len(out)/4-1))
	binary.BigEndian.PutUint32(out[4:8], p.SSRC)
	binary.BigEndian.PutUint32(out[8:12], p.LSR)
	binary.BigEndian.PutUint32(out[12:16], p.DLSR)
	return out
}

var (
	errRTCPShort     = errors.New("packet: truncated RTCP")
	errRTCPMalformed = errors.New("packet: malformed RTCP")
)

// DecodeRTCP parses a report. The 16-bit length field (in 32-bit words
// minus one, as RFC 3550 defines it) must agree exactly with the packet
// size — it used to be read-ignored, so a corrupted length silently decoded
// into a report whose span didn't match the wire.
func DecodeRTCP(b []byte) (RTCPPacket, error) {
	if len(b) < RTCPHeaderLen+8 {
		return RTCPPacket{}, errRTCPShort
	}
	if len(b) != RTCPHeaderLen+8 || b[0] != 2<<6 {
		return RTCPPacket{}, errRTCPMalformed
	}
	if words := int(binary.BigEndian.Uint16(b[2:4])); (words+1)*4 != len(b) {
		return RTCPPacket{}, errRTCPMalformed
	}
	return RTCPPacket{
		Type: b[1],
		SSRC: binary.BigEndian.Uint32(b[4:8]),
		LSR:  binary.BigEndian.Uint32(b[8:12]),
		DLSR: binary.BigEndian.Uint32(b[12:16]),
	}, nil
}

// IsRTCP distinguishes RTCP from RTP on a muxed port (RFC 5761 heuristic:
// RTCP packet types 200-204 fall in the RTP payload-type forbidden zone).
func IsRTCP(b []byte) bool {
	return len(b) >= 2 && b[1] >= 200 && b[1] <= 204
}
