package packet

import (
	"bytes"
	"testing"
)

func shapeTestPackets() []*Packet {
	return []*Packet{
		{IP: IPv4{TTL: 64, Protocol: ProtoUDP, Src: MustParseAddr("10.0.0.2"), Dst: MustParseAddr("10.2.0.2"), ID: 7},
			UDP: &UDP{SrcPort: 1000, DstPort: 2000}, Payload: []byte("avatar-update")},
		{IP: IPv4{TTL: 1, Protocol: ProtoTCP, Src: 1, Dst: 2, ID: 0xffff},
			TCP: &TCP{SrcPort: 443, DstPort: 39999, Seq: 0xdeadbeef, Ack: 1, Flags: FlagACK, Window: 65535}},
		{IP: IPv4{TTL: 255, Protocol: ProtoICMP, Src: 9, Dst: 10},
			ICMP: &ICMP{Type: ICMPEchoRequest, ID: 42, Seq: 3}},
		{IP: IPv4{TTL: 128, Protocol: ProtoUDP, Src: MustParseAddr("255.255.255.255"), Dst: MustParseAddr("0.0.0.1"), ID: 0},
			UDP: &UDP{SrcPort: 0, DstPort: 0}},
	}
}

// TestPutHeaderInFrontOfPayload: the fabric keeps a payload at HeaderLen
// in a dirty reused buffer and writes the header in front of it only for a
// tap. For every packet shape and TTL, that frame must equal Marshal()
// byte for byte, and PutHeader must not touch the payload bytes.
func TestPutHeaderInFrontOfPayload(t *testing.T) {
	for pi, p := range shapeTestPackets() {
		for ttl := 0; ttl <= 255; ttl++ {
			q := *p
			q.IP.TTL = uint8(ttl)
			frame := bytes.Repeat([]byte{0xa5}, q.WireLen())
			copy(frame[q.HeaderLen():], q.Payload)
			if off := q.PutHeader(frame); off != q.HeaderLen() {
				t.Fatalf("packet %d: PutHeader returned offset %d, want %d", pi, off, q.HeaderLen())
			}
			if want := q.Marshal(); !bytes.Equal(frame, want) {
				t.Fatalf("packet %d ttl %d: header written in place diverges from Marshal\n got %x\nwant %x", pi, ttl, frame, want)
			}
		}
	}
}

// TestMarshalToReusesBuffer: MarshalTo must produce the same bytes as
// Marshal while reusing a sufficiently large destination's backing array,
// and must leave no residue when a larger packet's buffer is reused for a
// smaller one.
func TestMarshalToReusesBuffer(t *testing.T) {
	pkts := shapeTestPackets()
	big := pkts[0]   // UDP with payload
	small := pkts[2] // ICMP, shorter

	buf := big.MarshalTo(nil)
	if !bytes.Equal(buf, big.Marshal()) {
		t.Fatal("MarshalTo(nil) != Marshal()")
	}
	reused := small.MarshalTo(buf[:0])
	if &reused[0] != &buf[0] {
		t.Fatal("MarshalTo allocated despite sufficient capacity")
	}
	if !bytes.Equal(reused, small.Marshal()) {
		t.Fatalf("reused-buffer marshal has residue:\n got %x\nwant %x", reused, small.Marshal())
	}
	grown := big.MarshalTo(reused[:0])
	if !bytes.Equal(grown, big.Marshal()) {
		t.Fatal("MarshalTo after regrow mismatch")
	}
}

// TestMarshalToAllocFree: steady-state serialization into a warm buffer
// allocates nothing.
func TestMarshalToAllocFree(t *testing.T) {
	p := shapeTestPackets()[0]
	buf := p.MarshalTo(nil)
	if avg := testing.AllocsPerRun(500, func() {
		buf = p.MarshalTo(buf[:0])
	}); avg != 0 {
		t.Fatalf("MarshalTo allocates %.2f objects/op into a warm buffer, want 0", avg)
	}
}

// TestAppendTLSRecordAllocFree: AppendTLSRecord extends dst by exactly
// MarshalTLSRecord's image (split records included), and framing into a
// warm buffer allocates nothing — the secure layer's per-record path.
func TestAppendTLSRecordAllocFree(t *testing.T) {
	prefix := []byte("prefix")
	for _, n := range []int{0, 1, 4096, MaxTLSPlaintext, MaxTLSPlaintext + 1, 3*MaxTLSPlaintext + 7} {
		body := bytes.Repeat([]byte{0xa5}, n)
		got := AppendTLSRecord(append([]byte(nil), prefix...), TLSApplicationData, body)
		if want := append(append([]byte(nil), prefix...), MarshalTLSRecord(TLSApplicationData, body)...); !bytes.Equal(got, want) {
			t.Fatalf("%d-byte body: AppendTLSRecord differs from MarshalTLSRecord", n)
		}
	}
	body := make([]byte, 4096)
	buf := AppendTLSRecord(nil, TLSApplicationData, body)
	if avg := testing.AllocsPerRun(500, func() {
		buf = AppendTLSRecord(buf[:0], TLSApplicationData, body)
	}); avg != 0 {
		t.Fatalf("AppendTLSRecord allocates %.2f objects/op into a warm buffer, want 0", avg)
	}
}
