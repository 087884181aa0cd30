package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestAddrString(t *testing.T) {
	a := MustParseAddr("10.1.2.3")
	if a.String() != "10.1.2.3" {
		t.Fatalf("String() = %q", a.String())
	}
	if MustParseAddr("255.255.255.255") != Addr(0xffffffff) {
		t.Fatal("broadcast parse failed")
	}
}

func TestMustParseAddrPanicsOnJunk(t *testing.T) {
	for _, s := range []string{"1.2.3", "1.2.3.4.5", "a.b.c.d", "300.1.1.1"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MustParseAddr(%q) did not panic", s)
				}
			}()
			MustParseAddr(s)
		}()
	}
}

func roundTrip(t *testing.T, p *Packet) *Packet {
	t.Helper()
	b := p.Marshal()
	if len(b) != p.WireLen() {
		t.Fatalf("WireLen = %d but Marshal produced %d bytes", p.WireLen(), len(b))
	}
	q, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return q
}

func TestUDPRoundTrip(t *testing.T) {
	p := &Packet{
		IP:      IPv4{TTL: 64, Protocol: ProtoUDP, Src: MustParseAddr("10.0.0.1"), Dst: MustParseAddr("10.0.0.2"), ID: 7},
		UDP:     &UDP{SrcPort: 5000, DstPort: 6000},
		Payload: []byte("avatar-update"),
	}
	q := roundTrip(t, p)
	if q.UDP == nil || q.UDP.SrcPort != 5000 || q.UDP.DstPort != 6000 {
		t.Fatalf("UDP header mismatch: %+v", q.UDP)
	}
	if !bytes.Equal(q.Payload, p.Payload) {
		t.Fatalf("payload mismatch: %q", q.Payload)
	}
	if q.IP.TTL != 64 || q.IP.Src != p.IP.Src || q.IP.Dst != p.IP.Dst || q.IP.ID != 7 {
		t.Fatalf("IP header mismatch: %+v", q.IP)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	p := &Packet{
		IP:      IPv4{TTL: 60, Protocol: ProtoTCP, Src: 1, Dst: 2},
		TCP:     &TCP{SrcPort: 443, DstPort: 39999, Seq: 0xdeadbeef, Ack: 0xfeedface, Flags: FlagSYN | FlagACK, Window: 65535},
		Payload: []byte{1, 2, 3},
	}
	q := roundTrip(t, p)
	tc := q.TCP
	if tc == nil || tc.Seq != 0xdeadbeef || tc.Ack != 0xfeedface || !tc.HasFlag(FlagSYN|FlagACK) || tc.Window != 65535 {
		t.Fatalf("TCP mismatch: %+v", tc)
	}
	if tc.HasFlag(FlagFIN) {
		t.Fatal("phantom FIN flag")
	}
}

func TestICMPRoundTrip(t *testing.T) {
	p := &Packet{
		IP:   IPv4{TTL: 1, Protocol: ProtoICMP, Src: 9, Dst: 10},
		ICMP: &ICMP{Type: ICMPEchoRequest, ID: 42, Seq: 3},
	}
	q := roundTrip(t, p)
	if q.ICMP == nil || q.ICMP.Type != ICMPEchoRequest || q.ICMP.ID != 42 || q.ICMP.Seq != 3 {
		t.Fatalf("ICMP mismatch: %+v", q.ICMP)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	p := &Packet{IP: IPv4{TTL: 64, Protocol: ProtoUDP, Src: 1, Dst: 2}, UDP: &UDP{SrcPort: 1, DstPort: 2}, Payload: []byte("x")}
	b := p.Marshal()

	if _, err := Decode(b[:10]); err == nil {
		t.Fatal("truncated packet decoded")
	}
	bad := append([]byte(nil), b...)
	bad[12] ^= 0xff // corrupt src addr -> checksum fails
	if _, err := Decode(bad); err == nil {
		t.Fatal("checksum corruption not detected")
	}
	bad2 := append([]byte(nil), b...)
	bad2[0] = 0x65 // version 6
	if _, err := Decode(bad2); err == nil {
		t.Fatal("non-IPv4 accepted")
	}
	if _, err := Decode(append(b, 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := &Packet{IP: IPv4{Protocol: ProtoUDP}, UDP: &UDP{SrcPort: 1}, Payload: []byte{1, 2}}
	q := p.Clone()
	q.UDP.SrcPort = 99
	q.Payload[0] = 9
	if p.UDP.SrcPort != 1 || p.Payload[0] != 1 {
		t.Fatal("Clone shares state with original")
	}
}

func TestPropertyUDPRoundTrip(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, ttl uint8, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		p := &Packet{
			IP:      IPv4{TTL: ttl, Protocol: ProtoUDP, Src: Addr(src), Dst: Addr(dst)},
			UDP:     &UDP{SrcPort: sp, DstPort: dp},
			Payload: payload,
		}
		q, err := Decode(p.Marshal())
		if err != nil {
			return false
		}
		return q.IP.Src == p.IP.Src && q.IP.Dst == p.IP.Dst && q.IP.TTL == ttl &&
			q.UDP.SrcPort == sp && q.UDP.DstPort == dp && bytes.Equal(q.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFlowOfAndReverse(t *testing.T) {
	p := &Packet{
		IP:  IPv4{Protocol: ProtoTCP, Src: 1, Dst: 2},
		TCP: &TCP{SrcPort: 10, DstPort: 20},
	}
	f := FlowOf(p)
	if f.Src != (Endpoint{Addr: 1, Port: 10}) || f.Dst != (Endpoint{Addr: 2, Port: 20}) {
		t.Fatalf("FlowOf = %v", f)
	}
	r := f.Reverse()
	if r.Src != f.Dst || r.Dst != f.Src || r.Proto != f.Proto {
		t.Fatalf("Reverse = %v", r)
	}
}

func TestFlowFastHashSymmetric(t *testing.T) {
	f := func(a, b uint32, pa, pb uint16) bool {
		fl := Flow{Proto: ProtoUDP, Src: Endpoint{Addr(a), pa}, Dst: Endpoint{Addr(b), pb}}
		return fl.FastHash() == fl.Reverse().FastHash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFlowFastHashDiscriminates(t *testing.T) {
	a := Flow{Proto: ProtoUDP, Src: Endpoint{1, 1}, Dst: Endpoint{2, 2}}
	b := Flow{Proto: ProtoUDP, Src: Endpoint{1, 1}, Dst: Endpoint{2, 3}}
	c := Flow{Proto: ProtoTCP, Src: Endpoint{1, 1}, Dst: Endpoint{2, 2}}
	if a.FastHash() == b.FastHash() {
		t.Fatal("different ports, same hash (suspicious)")
	}
	if a.FastHash() == c.FastHash() {
		t.Fatal("different protocols, same hash (suspicious)")
	}
}

func TestTLSRecordRoundTrip(t *testing.T) {
	body := []byte("GET /rooms HTTP/1.1")
	b := MarshalTLSRecord(TLSApplicationData, body)
	rec, got, rest, err := DecodeTLSRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ContentType != TLSApplicationData {
		t.Fatalf("content type = %d", rec.ContentType)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("body = %q", got)
	}
	if len(rest) != 0 {
		t.Fatalf("rest = %d bytes", len(rest))
	}
	// Overhead must be header + AEAD expansion.
	if len(b) != len(body)+TLSRecordHeaderLen+TLSRecordOverhead {
		t.Fatalf("record size %d", len(b))
	}
}

func TestTLSRecordStream(t *testing.T) {
	b := append(MarshalTLSRecord(TLSHandshake, []byte("hello")), MarshalTLSRecord(TLSApplicationData, []byte("world"))...)
	rec1, body1, rest, err := DecodeTLSRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	rec2, body2, rest2, err := DecodeTLSRecord(rest)
	if err != nil {
		t.Fatal(err)
	}
	if rec1.ContentType != TLSHandshake || string(body1) != "hello" {
		t.Fatal("first record wrong")
	}
	if rec2.ContentType != TLSApplicationData || string(body2) != "world" {
		t.Fatal("second record wrong")
	}
	if len(rest2) != 0 {
		t.Fatal("leftover bytes")
	}
	if _, _, _, err := DecodeTLSRecord(b[:3]); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestRTPRoundTrip(t *testing.T) {
	h := RTPHeader{PayloadType: RTPPayloadOpus, Seq: 100, Timestamp: 48000, SSRC: 0xabcd, Marker: true}
	payload := bytes.Repeat([]byte{0x5a}, 80)
	b := AppendRTP(nil, h, payload)
	got, body, err := DecodeRTP(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("header = %+v, want %+v", got, h)
	}
	if !bytes.Equal(body, payload) {
		t.Fatal("payload mismatch")
	}
	if _, _, err := DecodeRTP(b[:5]); err == nil {
		t.Fatal("truncated RTP accepted")
	}
}

func TestRTCPRoundTripAndMuxHeuristic(t *testing.T) {
	p := RTCPPacket{Type: RTCPSenderReport, SSRC: 7, LSR: 123, DLSR: 456}
	b := MarshalRTCP(p)
	got, err := DecodeRTCP(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("RTCP = %+v, want %+v", got, p)
	}
	if !IsRTCP(b) {
		t.Fatal("RTCP not classified as RTCP")
	}
	rtp := AppendRTP(nil, RTPHeader{PayloadType: RTPPayloadOpus}, []byte{1})
	if IsRTCP(rtp) {
		t.Fatal("RTP misclassified as RTCP")
	}
}

func TestWireLenMatchesHeaderSizes(t *testing.T) {
	udp := &Packet{IP: IPv4{Protocol: ProtoUDP}, UDP: &UDP{}, Payload: make([]byte, 100)}
	if udp.WireLen() != 20+8+100 {
		t.Fatalf("UDP WireLen = %d", udp.WireLen())
	}
	tcp := &Packet{IP: IPv4{Protocol: ProtoTCP}, TCP: &TCP{}, Payload: make([]byte, 10)}
	if tcp.WireLen() != 20+20+10 {
		t.Fatalf("TCP WireLen = %d", tcp.WireLen())
	}
	icmp := &Packet{IP: IPv4{Protocol: ProtoICMP}, ICMP: &ICMP{}}
	if icmp.WireLen() != 28 {
		t.Fatalf("ICMP WireLen = %d", icmp.WireLen())
	}
}
