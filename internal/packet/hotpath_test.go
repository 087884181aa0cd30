package packet

import (
	"bytes"
	"testing"
)

func patchTestPackets() []*Packet {
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

// TestPatchTTLMatchesRemarshal: for every packet shape and every TTL value,
// the incremental RFC 1624 patch must produce bytes identical to a full
// re-marshal with the new TTL — including the 0x0000/0xffff checksum
// corners that break naive incremental updates.
func TestPatchTTLMatchesRemarshal(t *testing.T) {
	for pi, p := range patchTestPackets() {
		for ttl := 0; ttl <= 255; ttl++ {
			wire := p.Marshal()
			PatchTTL(wire, uint8(ttl))
			q := *p
			q.IP.TTL = uint8(ttl)
			want := q.Marshal()
			if !bytes.Equal(wire, want) {
				t.Fatalf("packet %d ttl %d: patched bytes diverge from re-marshal\n got %x\nwant %x", pi, ttl, wire, want)
			}
			if _, err := Decode(wire); err != nil {
				t.Fatalf("packet %d ttl %d: patched wire undecodable: %v", pi, ttl, err)
			}
		}
	}
}

// TestPatchTTLShortBufferNoop: patching a buffer shorter than an IPv4
// header must be a no-op, not a panic.
func TestPatchTTLShortBufferNoop(t *testing.T) {
	short := []byte{0x45, 0, 0, 19}
	orig := append([]byte(nil), short...)
	PatchTTL(short, 9)
	if !bytes.Equal(short, orig) {
		t.Fatal("PatchTTL wrote into a short buffer")
	}
}

// TestMarshalToReusesBuffer: MarshalTo must produce the same bytes as
// Marshal while reusing a sufficiently large destination's backing array,
// and must leave no residue when a larger packet's buffer is reused for a
// smaller one.
func TestMarshalToReusesBuffer(t *testing.T) {
	pkts := patchTestPackets()
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
	p := patchTestPackets()[0]
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

// TestDecodeIntoReusesStructs: repeated same-protocol decodes into one
// destination must reuse the transport struct and payload backing array —
// the property the capture scratch-decode path depends on.
func TestDecodeIntoReusesStructs(t *testing.T) {
	wire := patchTestPackets()[0].Marshal() // UDP with payload
	var dst Packet
	if err := DecodeInto(&dst, wire); err != nil {
		t.Fatal(err)
	}
	udp, payload := dst.UDP, dst.Payload
	if err := DecodeInto(&dst, wire); err != nil {
		t.Fatal(err)
	}
	if dst.UDP != udp {
		t.Fatal("DecodeInto allocated a fresh UDP struct on reuse")
	}
	if len(payload) > 0 && &dst.Payload[0] != &payload[0] {
		t.Fatal("DecodeInto allocated a fresh payload on reuse")
	}
}

// TestDecodeIntoSwitchesProtocol: reusing a destination across protocols
// must clear the stale transport pointer, never leave two set at once.
func TestDecodeIntoSwitchesProtocol(t *testing.T) {
	pkts := patchTestPackets()
	var dst Packet
	for _, p := range []*Packet{pkts[0], pkts[1], pkts[2], pkts[0]} {
		wire := p.Marshal()
		if err := DecodeInto(&dst, wire); err != nil {
			t.Fatal(err)
		}
		set := 0
		if dst.UDP != nil {
			set++
		}
		if dst.TCP != nil {
			set++
		}
		if dst.ICMP != nil {
			set++
		}
		if set != 1 {
			t.Fatalf("after decoding proto %v: %d transport structs set", p.IP.Protocol, set)
		}
		if !bytes.Equal(dst.Marshal(), wire) {
			t.Fatalf("proto %v: DecodeInto result re-marshals differently", p.IP.Protocol)
		}
	}
}

// TestDecodeIntoAllocFree: a warm destination makes same-shape decodes
// allocation-free — the zero-alloc sibling contract of Decode.
func TestDecodeIntoAllocFree(t *testing.T) {
	wire := patchTestPackets()[0].Marshal()
	var dst Packet
	if err := DecodeInto(&dst, wire); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := DecodeInto(&dst, wire); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm DecodeInto allocates %.2f per run, want 0", allocs)
	}
}
