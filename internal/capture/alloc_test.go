package capture

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
)

func allocTestWire() []byte {
	p := &packet.Packet{
		IP:      packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: 1, Dst: 2},
		UDP:     &packet.UDP{SrcPort: 1000, DstPort: 2000},
		Payload: make([]byte, 32),
	}
	return p.Marshal()
}

// TestIngestAmortizedAllocFree: the tapped fast path must not allocate per
// packet. A warm-up fill leaves the sniffer its chunks, and Clear keeps
// them, so ingesting after the Clear writes into chunks it already has.
func TestIngestAmortizedAllocFree(t *testing.T) {
	wire := allocTestWire()
	s := NewSniffer()
	for i := 0; i < 8192; i++ { // warm up the chunks
		s.ingest(time.Duration(i), netsim.DirUp, wire)
	}
	s.Clear()
	at := time.Duration(0)
	allocs := testing.AllocsPerRun(5000, func() {
		at += time.Microsecond
		s.ingest(at, netsim.DirUp, wire)
	})
	if allocs != 0 {
		t.Fatalf("ingest allocates %.4f per packet, want 0", allocs)
	}
}

// TestFillClearCycleAllocFree: a long session alternating capture phases
// with Clear must reach a steady state where a whole fill+Clear cycle
// allocates nothing — Clear keeps the chunks the next fill writes into.
func TestFillClearCycleAllocFree(t *testing.T) {
	wire := allocTestWire()
	s := NewSniffer()
	cycle := func() {
		for i := 0; i < 2048; i++ {
			s.ingest(time.Duration(i), netsim.DirDown, wire)
		}
		s.Clear()
	}
	cycle() // warm up the chunks
	allocs := testing.AllocsPerRun(20, cycle)
	if allocs != 0 {
		t.Fatalf("fill+clear cycle allocates %.2f per cycle, want 0", allocs)
	}
}

// TestFilterQueryAllocFree: filtered queries read the stored flow keys and
// decode nothing, so repeating one over mixed-protocol traffic allocates
// nothing.
func TestFilterQueryAllocFree(t *testing.T) {
	s := NewSniffer()
	udp := allocTestWire()
	tcpPkt := &packet.Packet{
		IP:      packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, Src: 3, Dst: 4},
		TCP:     &packet.TCP{SrcPort: 443, DstPort: 5000, Flags: packet.FlagACK, Window: 100},
		Payload: make([]byte, 64),
	}
	tcp := tcpPkt.Marshal()
	for i := 0; i < 512; i++ {
		w := udp
		if i%2 == 1 {
			w = tcp
		}
		s.ingest(time.Duration(i)*time.Millisecond, netsim.DirUp, w)
	}
	m := Match{Filter: FilterProto(packet.ProtoTCP)}
	want := s.Bytes(m, 0, time.Hour)
	allocs := testing.AllocsPerRun(100, func() {
		if got := s.Bytes(m, 0, time.Hour); got != want {
			t.Errorf("Bytes = %d, want %d", got, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("filtered Bytes allocates %.2f per query, want 0", allocs)
	}
}

// TestIngestAllocBound: capture costs what it keeps. A sniffer stores a
// fixed 32-byte record per packet, whatever the packet's size, so ingesting
// 100 000 full-size TCP segments into a fresh sniffer may allocate at most
// 40 bytes per record: the records plus the growth of the chunk list.
func TestIngestAllocBound(t *testing.T) {
	if size := unsafe.Sizeof(rec{}); size != 32 {
		t.Fatalf("record is %d bytes, want 32", size)
	}
	const n = 100_000
	wire := (&packet.Packet{
		IP:      packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, Src: 3, Dst: 4},
		TCP:     &packet.TCP{SrcPort: 443, DstPort: 5000, Flags: packet.FlagACK, Window: 100},
		Payload: make([]byte, 1200),
	}).Marshal()
	if len(wire) != 1240 {
		t.Fatalf("segment is %d bytes, want 1240", len(wire))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewSniffer()
	for i := 0; i < n; i++ {
		s.ingest(time.Duration(i)*time.Microsecond, netsim.DirDown, wire)
	}
	runtime.ReadMemStats(&after)
	if s.Len() != n {
		t.Fatalf("records = %d, want %d", s.Len(), n)
	}
	if per := float64(after.TotalAlloc-before.TotalAlloc) / n; per > 40 {
		t.Fatalf("ingest allocated %.1f bytes per record, want <= 40", per)
	}
}
