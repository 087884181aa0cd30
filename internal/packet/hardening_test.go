package packet_test

import (
	"bytes"
	"errors"
	"testing"

	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/wiretest"
)

// Regression tests for the marshal/length bugs the fuzz harness surfaced,
// plus truncation sweeps pinning that every strict prefix of a valid frame
// is rejected cleanly (these codecs are exactly framed: no truncation of a
// valid frame is itself valid).

func validPackets() map[string]*packet.Packet {
	return map[string]*packet.Packet{
		"udp": {
			IP:      packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: 0x0a000001, Dst: 0x0a000002, ID: 3},
			UDP:     &packet.UDP{SrcPort: 40000, DstPort: 7777},
			Payload: []byte{1, 2, 3, 4},
		},
		"tcp": {
			IP:      packet.IPv4{TTL: 32, Protocol: packet.ProtoTCP, Src: 0x0a000001, Dst: 0x0a000002, ID: 4},
			TCP:     &packet.TCP{SrcPort: 44000, DstPort: 443, Seq: 9, Ack: 8, Flags: packet.FlagACK, Window: 100},
			Payload: []byte{5, 6},
		},
		"icmp": {
			IP:   packet.IPv4{TTL: 1, Protocol: packet.ProtoICMP, Src: 0x0a000001, Dst: 0x08080808},
			ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest, ID: 1, Seq: 2},
		},
		"other-proto": {
			IP:      packet.IPv4{TTL: 64, Protocol: 47, Src: 0x0a000001, Dst: 0x0a000002},
			Payload: []byte{7},
		},
	}
}

func TestDecodeRejectsAllPrefixes(t *testing.T) {
	for name, p := range validPackets() {
		t.Run(name, func(t *testing.T) {
			wire := p.Marshal()
			if _, err := packet.Decode(wire); err != nil {
				t.Fatalf("full frame: %v", err)
			}
			wiretest.CheckPrefixesError(t, wire, func(b []byte) error {
				_, err := packet.Decode(b)
				return err
			})
		})
	}
}

func TestDecodeRejectsNonCanonicalHeaders(t *testing.T) {
	wire := validPackets()["udp"].Marshal()
	bad := map[string]int{
		"ihl":          0,  // version/IHL byte
		"tos":          1,  // TOS must be zero
		"frag":         6,  // fragment word must be zero
		"udp-checksum": 26, // transport checksum must be zero
	}
	for name, off := range bad {
		t.Run(name, func(t *testing.T) {
			mut := append([]byte(nil), wire...)
			mut[off] ^= 1
			if _, err := packet.Decode(mut); err == nil {
				t.Fatalf("byte %d corrupted but frame decoded", off)
			}
		})
	}
}

func TestMarshalToRejectsOversizeFrame(t *testing.T) {
	p := &packet.Packet{
		IP:      packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: 1, Dst: 2},
		UDP:     &packet.UDP{SrcPort: 1, DstPort: 2},
		Payload: make([]byte, 0x10000),
	}
	defer func() {
		if recover() == nil {
			t.Fatal("oversize frame marshaled without panic (16-bit total length would wrap)")
		}
	}()
	p.Marshal()
}

// TestMarshalTLSRecordSplitsLongBody pins the fix for the 16-bit record
// length overflow: a body over 65511 bytes used to wrap the length field
// and desync the receiver; now any body beyond MaxTLSPlaintext is split
// across records exactly as real TLS fragments, and the concatenation
// decodes back to the original body.
func TestMarshalTLSRecordSplitsLongBody(t *testing.T) {
	body := make([]byte, 70_000)
	for i := range body {
		body[i] = byte(i)
	}
	wire := packet.MarshalTLSRecord(packet.TLSApplicationData, body)
	var got []byte
	records := 0
	for len(wire) > 0 {
		rec, part, rest, err := packet.DecodeTLSRecord(wire)
		if err != nil {
			t.Fatalf("record %d: %v", records, err)
		}
		if rec.BodyLen-packet.TLSRecordOverhead > packet.MaxTLSPlaintext {
			t.Fatalf("record %d exceeds plaintext ceiling: %d", records, rec.BodyLen)
		}
		got = append(got, part...)
		wire = rest
		records++
	}
	if want := (len(body) + packet.MaxTLSPlaintext - 1) / packet.MaxTLSPlaintext; records != want {
		t.Fatalf("split into %d records, want %d", records, want)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("reassembled body differs from original")
	}
}

func TestDecodeTLSRecordRejections(t *testing.T) {
	valid := packet.MarshalTLSRecord(packet.TLSApplicationData, []byte("abc"))
	cases := map[string]struct {
		frame []byte
		want  error
	}{
		"short-header":     {valid[:4], packet.ErrTLSShort},
		"short-body":       {valid[:len(valid)-1], packet.ErrTLSShort},
		"zero-length":      {[]byte{23, 3, 3, 0, 0}, packet.ErrTLSMalformed},
		"below-overhead":   {[]byte{23, 3, 3, 0, packet.TLSRecordOverhead - 1}, packet.ErrTLSMalformed},
		"above-ceiling":    {[]byte{23, 3, 3, 0xff, 0xff}, packet.ErrTLSMalformed},
		"bad-version":      {append([]byte{23, 3, 4}, valid[3:]...), packet.ErrTLSMalformed},
		"dirty-aead-bytes": {mutateAt(valid, len(valid)-1), packet.ErrTLSMalformed},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			if _, _, _, err := packet.DecodeTLSRecord(tc.frame); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func mutateAt(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 1
	return out
}

// TestDecodeRTCPValidatesLength pins the fix for the read-ignored RTCP
// length field: a report whose 16-bit word count disagrees with the packet
// size is malformed, not silently decoded.
func TestDecodeRTCPValidatesLength(t *testing.T) {
	valid := packet.MarshalRTCP(packet.RTCPPacket{Type: packet.RTCPSenderReport, SSRC: 7, LSR: 1, DLSR: 2})
	if _, err := packet.DecodeRTCP(valid); err != nil {
		t.Fatalf("valid report: %v", err)
	}
	badLen := mutateAt(valid, 3)
	if _, err := packet.DecodeRTCP(badLen); err == nil {
		t.Fatal("length field disagrees with packet size but report decoded")
	}
	trailing := append(append([]byte(nil), valid...), 0)
	if _, err := packet.DecodeRTCP(trailing); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	wiretest.CheckPrefixesError(t, valid, func(b []byte) error {
		_, err := packet.DecodeRTCP(b)
		return err
	})
}

func TestDecodeRTPRejectsDirtyAuthTag(t *testing.T) {
	valid := packet.AppendRTP(nil, packet.RTPHeader{PayloadType: packet.RTPPayloadOpus, Seq: 1}, make([]byte, 10))
	if _, _, err := packet.DecodeRTP(valid); err != nil {
		t.Fatalf("valid packet: %v", err)
	}
	if _, _, err := packet.DecodeRTP(mutateAt(valid, len(valid)-1)); err == nil {
		t.Fatal("dirty auth tag accepted")
	}
	if _, _, err := packet.DecodeRTP(mutateAt(valid, 0)); err == nil {
		t.Fatal("non-canonical first octet accepted")
	}
}
