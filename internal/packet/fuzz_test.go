package packet_test

import (
	"bytes"
	"errors"
	"testing"

	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/wiretest"
)

// Fuzz bodies for every decoder in this package. Each enforces the §4.10
// codec hardening contract: arbitrary bytes never panic, and any input that
// decodes re-marshals byte-identically (the decoder accepts exactly the
// marshaler's image). Each target's seeds are frames from the real
// marshalers plus damaged variants (truncations, flipped bytes) that pin the
// rejection paths; plain `go test` runs the body on each seed as a subtest,
// and each target's Test…Seeds holds the decoder to every seed's verdict.

func checkDecodePacket(t *testing.T, data []byte) {
	p, err := packet.Decode(data)

	// PeekFlow must agree with Decode on every input: same accept/reject
	// verdict, and for accepted inputs the flow FlowOf derives from the
	// decoded packet. This is the contract capture leans on — tap-time
	// classification stands in for "would Decode succeed".
	fl, ok := packet.PeekFlow(data)
	if ok != (err == nil) {
		t.Fatalf("Decode err=%v but PeekFlow ok=%v", err, ok)
	}
	if err != nil {
		return
	}
	if p.WireLen() != len(data) {
		t.Fatalf("WireLen %d != input %d", p.WireLen(), len(data))
	}
	wiretest.AssertRemarshal(t, data, p.Marshal())
	// A decoded packet must also survive Clone and flow extraction.
	wiretest.AssertRemarshal(t, data, p.Clone().Marshal())
	if fl != packet.FlowOf(p) {
		t.Fatalf("PeekFlow %+v != FlowOf(Decode) %+v", fl, packet.FlowOf(p))
	}
	_ = fl.FastHash()
}

func decodePacketSeeds() []wiretest.Seed {
	src := packet.MustParseAddr("10.0.0.1")
	udp := (&packet.Packet{
		IP:      packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: src, Dst: packet.MustParseAddr("10.0.0.2"), ID: 7},
		UDP:     &packet.UDP{SrcPort: 40000, DstPort: 7777},
		Payload: []byte{1, 4, 'r', 'o', 'o', 'm', 2, 'u', '1'},
	}).Marshal()
	tcp := (&packet.Packet{
		IP:      packet.IPv4{TTL: 32, Protocol: packet.ProtoTCP, Src: src, Dst: packet.MustParseAddr("172.16.0.9"), ID: 8},
		TCP:     &packet.TCP{SrcPort: 44000, DstPort: 443, Seq: 1000, Ack: 2000, Flags: packet.FlagACK | packet.FlagPSH, Window: 65535},
		Payload: bytes.Repeat([]byte{0xab}, 32),
	}).Marshal()
	icmp := (&packet.Packet{
		IP:   packet.IPv4{TTL: 1, Protocol: packet.ProtoICMP, Src: src, Dst: packet.MustParseAddr("8.8.8.8"), ID: 9},
		ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest, ID: 1, Seq: 3},
	}).Marshal()
	other := (&packet.Packet{
		IP:      packet.IPv4{TTL: 64, Protocol: 47, Src: src, Dst: packet.MustParseAddr("10.0.0.2")},
		Payload: []byte{1, 2, 3},
	}).Marshal()
	return []wiretest.Seed{
		{Name: "ip-header-stub", Data: []byte{0x45, 0, 0, 20}, Reject: true},
		{Name: "udp", Data: udp},
		{Name: "tcp", Data: tcp},
		{Name: "icmp", Data: icmp},
		{Name: "other-proto", Data: other},
		{Name: "truncated-header", Data: udp[:12], Reject: true},
		{Name: "ihl-not-5", Data: wiretest.Flip(udp, 0, 1), Reject: true},
		{Name: "broken-checksum", Data: wiretest.Flip(tcp, 10, 1), Reject: true},
		{Name: "udp-checksum-set", Data: wiretest.Flip(udp, 26, 1), Reject: true},
	}
}

func FuzzDecodePacket(f *testing.F) {
	wiretest.AddSeeds(f, decodePacketSeeds())
	f.Fuzz(checkDecodePacket)
}

func TestDecodePacketSeeds(t *testing.T) {
	wiretest.CheckVerdicts(t, decodePacketSeeds(), func(data []byte) error {
		_, err := packet.Decode(data)
		return err
	})
}

func checkDecodeTLSRecord(t *testing.T, data []byte) {
	rec, body, rest, err := packet.DecodeTLSRecord(data)
	if err != nil {
		if !errors.Is(err, packet.ErrTLSShort) && !errors.Is(err, packet.ErrTLSMalformed) {
			t.Fatalf("unexpected error class: %v", err)
		}
		return
	}
	if rec.BodyLen != len(body)+packet.TLSRecordOverhead {
		t.Fatalf("BodyLen %d vs body %d + overhead", rec.BodyLen, len(body))
	}
	consumed := len(data) - len(rest)
	wiretest.AssertRemarshal(t, data[:consumed], packet.MarshalTLSRecord(rec.ContentType, body))
}

func decodeTLSRecordSeeds() []wiretest.Seed {
	app := packet.MarshalTLSRecord(packet.TLSApplicationData, []byte("hello metaverse"))
	hs := packet.MarshalTLSRecord(packet.TLSHandshake, make([]byte, 330))
	return []wiretest.Seed{
		{Name: "short-app-data", Data: packet.MarshalTLSRecord(packet.TLSApplicationData, []byte("seed"))},
		{Name: "app-data", Data: app},
		{Name: "handshake", Data: hs},
		{Name: "two-records", Data: append(append([]byte(nil), app...), hs...)},
		{Name: "short-header", Data: app[:3], Reject: true},
		{Name: "bad-version", Data: wiretest.Flip(app, 1, 1), Reject: true},
		{Name: "inconsistent-length", Data: wiretest.Flip(app, 4, 1), Reject: true},
		{Name: "length-below-aead-overhead", Data: []byte{23, 3, 3, 0, 0}, Reject: true},
	}
}

func FuzzDecodeTLSRecord(f *testing.F) {
	wiretest.AddSeeds(f, decodeTLSRecordSeeds())
	f.Fuzz(checkDecodeTLSRecord)
}

func TestDecodeTLSRecordSeeds(t *testing.T) {
	wiretest.CheckVerdicts(t, decodeTLSRecordSeeds(), func(data []byte) error {
		_, _, _, err := packet.DecodeTLSRecord(data)
		return err
	})
}

func checkDecodeRTP(t *testing.T, data []byte) {
	h, payload, err := packet.DecodeRTP(data)
	if err != nil {
		return
	}
	wiretest.AssertRemarshal(t, data, packet.AppendRTP(nil, h, payload))
}

func decodeRTPSeeds() []wiretest.Seed {
	rtp := packet.AppendRTP(nil, packet.RTPHeader{PayloadType: packet.RTPPayloadOpus, Seq: 42, Timestamp: 960, SSRC: 0xdecafbad, Marker: true}, make([]byte, 160))
	return []wiretest.Seed{
		{Name: "zero-header", Data: packet.AppendRTP(nil, packet.RTPHeader{PayloadType: packet.RTPPayloadOpus}, make([]byte, 20))},
		{Name: "opus", Data: rtp},
		{Name: "short", Data: rtp[:8], Reject: true},
		{Name: "bad-version-bits", Data: wiretest.Flip(rtp, 0, 0x20), Reject: true},
		{Name: "dirty-auth-tag", Data: wiretest.Flip(rtp, len(rtp)-1, 1), Reject: true},
		{Name: "payload-bit-flip", Data: wiretest.Flip(rtp, len(rtp)-20, 1)}, // still valid
	}
}

func FuzzDecodeRTP(f *testing.F) {
	wiretest.AddSeeds(f, decodeRTPSeeds())
	f.Fuzz(checkDecodeRTP)
}

func TestDecodeRTPSeeds(t *testing.T) {
	wiretest.CheckVerdicts(t, decodeRTPSeeds(), func(data []byte) error {
		_, _, err := packet.DecodeRTP(data)
		return err
	})
}

func checkDecodeRTCP(t *testing.T, data []byte) {
	p, err := packet.DecodeRTCP(data)
	if err != nil {
		return
	}
	wiretest.AssertRemarshal(t, data, packet.MarshalRTCP(p))
}

func decodeRTCPSeeds() []wiretest.Seed {
	rtcp := packet.MarshalRTCP(packet.RTCPPacket{Type: packet.RTCPSenderReport, SSRC: 0xdecafbad, LSR: 0x01020304, DLSR: 0x0000ffff})
	return []wiretest.Seed{
		{Name: "minimal-sr", Data: packet.MarshalRTCP(packet.RTCPPacket{Type: packet.RTCPSenderReport, SSRC: 1})},
		{Name: "sender-report", Data: rtcp},
		{Name: "short", Data: rtcp[:10], Reject: true},
		{Name: "length-disagrees", Data: wiretest.Flip(rtcp, 3, 1), Reject: true},
		{Name: "bad-version", Data: wiretest.Flip(rtcp, 0, 1), Reject: true},
		{Name: "trailing-bytes", Data: append(append([]byte(nil), rtcp...), 0, 0, 0, 0), Reject: true},
	}
}

func FuzzDecodeRTCP(f *testing.F) {
	wiretest.AddSeeds(f, decodeRTCPSeeds())
	f.Fuzz(checkDecodeRTCP)
}

func TestDecodeRTCPSeeds(t *testing.T) {
	wiretest.CheckVerdicts(t, decodeRTCPSeeds(), func(data []byte) error {
		_, err := packet.DecodeRTCP(data)
		return err
	})
}
