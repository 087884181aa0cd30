// Hot-path micro-benchmarks: where the artifact benchmark in bench/
// measures whole experiments, these isolate the per-packet machinery the
// fast-path work targets — fabric forwarding, wire serialization, the
// scheduler and capture ingest. Run with -benchmem; the allocs/op column is
// the contract (see DESIGN.md "The packet hot path"). `make bench-hotpath`
// runs exactly this suite.
package svrlab_test

import (
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/capture"
	"github.com/svrlab/svrlab/internal/geo"
	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/simtime"
)

// benchNet builds the same 3-site line the netsim tests use: two WiFi hosts
// at the ends, one intermediate backbone site.
func benchNet() (*netsim.Network, *netsim.Host, *netsim.Host) {
	s := simtime.NewScheduler()
	n := netsim.New(s, 1, nil)
	east := n.AddSite("east", geo.Fairfax, packet.MustParseAddr("10.0.0.1"))
	mid := n.AddSite("mid", geo.Minneapolis, packet.MustParseAddr("10.1.0.1"))
	west := n.AddSite("west", geo.SanJose, packet.MustParseAddr("10.2.0.1"))
	n.Connect(east, mid)
	n.Connect(mid, west)
	h1 := n.AddHost("u1", east, packet.MustParseAddr("10.0.0.2"), netsim.WiFiAccess())
	h2 := n.AddHost("u2", west, packet.MustParseAddr("10.2.0.2"), netsim.WiFiAccess())
	return n, h1, h2
}

func benchPacket(dst packet.Addr) *packet.Packet {
	return &packet.Packet{
		IP:      packet.IPv4{Protocol: packet.ProtoUDP, Dst: dst},
		UDP:     &packet.UDP{SrcPort: 1000, DstPort: 2000},
		Payload: []byte("avatar-update-avatar-update-avat"), // 32 B, a voice-frame-ish size
	}
}

// BenchmarkHotpathSendDeliver measures a full Send→forward→forward→deliver
// round trip across three sites, draining the scheduler each iteration.
func BenchmarkHotpathSendDeliver(b *testing.B) {
	n, h1, h2 := benchNet()
	h2.Handler = func(p *packet.Packet) {}
	pkt := benchPacket(h2.Addr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(h1, pkt)
		n.Sched.Run()
	}
}

// BenchmarkHotpathSendDeliverTapped is the same round trip with a capture
// sniffer attached at each end — the configuration every experiment runs in.
func BenchmarkHotpathSendDeliverTapped(b *testing.B) {
	n, h1, h2 := benchNet()
	h2.Handler = func(p *packet.Packet) {}
	s1, s2 := capture.Attach(h1), capture.Attach(h2)
	pkt := benchPacket(h2.Addr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(h1, pkt)
		n.Sched.Run()
		if s1.Len()+s2.Len() >= 4096 {
			b.StopTimer()
			s1.Clear()
			s2.Clear()
			b.StartTimer()
		}
	}
}

// BenchmarkHotpathMarshal is fresh-buffer serialization (one allocation).
func BenchmarkHotpathMarshal(b *testing.B) {
	p := benchPacket(packet.MustParseAddr("10.2.0.2"))
	p.IP.TTL = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Marshal()
	}
}

// BenchmarkHotpathMarshalTo is serialization into a warm reused buffer —
// what a tapped packet costs the fabric per tap point (the header write
// plus the payload copy at Send).
func BenchmarkHotpathMarshalTo(b *testing.B) {
	p := benchPacket(packet.MustParseAddr("10.2.0.2"))
	p.IP.TTL = 64
	buf := p.MarshalTo(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = p.MarshalTo(buf[:0])
	}
}

// benchSniffer returns a sniffer pre-filled with n records across a few
// flows, 1 ms apart, alternating direction — a small captured session for
// the analysis benchmarks.
func benchSniffer(n int) *capture.Sniffer {
	recs := make([]capture.Record, 0, n)
	for i := 0; i < n; i++ {
		p := benchPacket(packet.MustParseAddr("10.2.0.2"))
		p.IP.TTL = 64
		p.IP.Src = packet.MustParseAddr("10.0.0.2")
		p.UDP.SrcPort = uint16(1000 + i%4) // 4 flows
		dir := netsim.DirUp
		if i%2 == 1 {
			dir = netsim.DirDown
		}
		recs = append(recs, capture.Record{
			TS:   time.Duration(i) * time.Millisecond,
			Dir:  dir,
			Wire: p.Marshal(),
		})
	}
	return capture.Restore(recs)
}

// BenchmarkHotpathCaptureBytes is a windowed filter-less byte count: the
// timestamp binary search, then a scan of the window's records.
func BenchmarkHotpathCaptureBytes(b *testing.B) {
	sn := benchSniffer(4096)
	m := capture.MatchUp(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sn.Bytes(m, time.Second, 3*time.Second) == 0 {
			b.Fatal("empty window")
		}
	}
}

// BenchmarkHotpathCaptureBytesFiltered is the same window with a Filter,
// which sees each in-window record's stored flow key.
func BenchmarkHotpathCaptureBytesFiltered(b *testing.B) {
	sn := benchSniffer(4096)
	m := capture.MatchUp(capture.FilterProto(packet.ProtoUDP))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sn.Bytes(m, time.Second, 3*time.Second) == 0 {
			b.Fatal("empty window")
		}
	}
}

// BenchmarkHotpathCaptureSeries builds a 1-second-bucket throughput series
// over the whole capture (the Figure 2/3 primitive).
func BenchmarkHotpathCaptureSeries(b *testing.B) {
	sn := benchSniffer(4096)
	m := capture.MatchUp(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(sn.Series(m, 0, 4*time.Second, time.Second).Values) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkHotpathCaptureFlows groups the capture into flows by the
// records' stored flow keys.
func BenchmarkHotpathCaptureFlows(b *testing.B) {
	sn := benchSniffer(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(sn.Flows(capture.Match{})) != 4 {
			b.Fatal("flow count changed")
		}
	}
}

// BenchmarkHotpathSchedPostDispatch measures the scheduler on the
// packet-hop shape: 1024 packets in flight over 64 links, each hop a push
// onto the FIFO of the link it crosses, and each dispatched hop pushing its
// packet onto another link 1–128 µs later (never before that link's tail,
// as Link.transmit guarantees). Per op = one push + one dispatch.
func BenchmarkHotpathSchedPostDispatch(b *testing.B) {
	const links, inFlight = 64, 1024
	s := simtime.NewScheduler()
	var queues [links]simtime.Queue
	var tails [links]time.Duration
	type hop struct {
		item simtime.Item
		link int
		run  func()
	}
	push := func(h *hop, d time.Duration) {
		t := max(s.Now()+d, tails[h.link])
		tails[h.link] = t
		s.Push(&queues[h.link], &h.item, t, h.run)
	}
	for i := 0; i < inFlight; i++ {
		h := &hop{link: i % links}
		n := i
		h.run = func() {
			n++
			h.link = (h.link*7 + 3) % links
			push(h, time.Duration(1+(n*37)%128)*time.Microsecond)
		}
		push(h, time.Duration(1+i%128)*time.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkHotpathSchedMixedHorizon interleaves near timers with sparse far
// ones (keepalives, session ends), so the heap stays deep while most
// dispatches come from its near end.
func BenchmarkHotpathSchedMixedHorizon(b *testing.B) {
	s := simtime.NewScheduler()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 256 {
		base := s.Now()
		for j := 0; j < 240; j++ {
			s.At(base+time.Duration(1+(j*53)%512)*time.Microsecond, fn)
		}
		for j := 0; j < 16; j++ {
			// 1s..16s out.
			s.At(base+time.Duration(1+j)*time.Second, fn)
		}
		s.RunUntil(base + 600*time.Microsecond)
	}
	b.StopTimer()
	s.Run()
}

// BenchmarkHotpathSchedTicker measures the steady-state cost of one tick
// of a repeating timer — reschedule plus dispatch, zero allocations once the
// ticker exists.
func BenchmarkHotpathSchedTicker(b *testing.B) {
	s := simtime.NewScheduler()
	ticks := 0
	s.Ticker(time.Millisecond, func() { ticks++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 64 {
		s.RunUntil(s.Now() + 64*time.Millisecond)
	}
	b.StopTimer()
	if ticks == 0 {
		b.Fatal("ticker never ticked")
	}
}

// BenchmarkHotpathCaptureIngest measures sniffer ingest of a delivered
// packet: the tap writing the packet's 32-byte record.
func BenchmarkHotpathCaptureIngest(b *testing.B) {
	n, h1, h2 := benchNet()
	h2.Handler = func(p *packet.Packet) {}
	sn := capture.Attach(h2)
	pkt := benchPacket(h2.Addr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(h1, pkt)
		n.Sched.Run()
		if sn.Len() >= 4096 {
			b.StopTimer()
			sn.Clear()
			b.StartTimer()
		}
	}
}
