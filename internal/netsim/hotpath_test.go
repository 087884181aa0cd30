package netsim

import (
	"bytes"
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/geo"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/simtime"
	"github.com/svrlab/svrlab/internal/trace"
)

// TestWireFidelityAcrossFabric: the fabric writes a packet's headers in
// front of its payload only where a tap reads the frame, so each tap must
// see exactly Marshal() of the packet at its point, whether the other end is
// tapped or not: the sent packet at the sender's up-tap, and the delivered
// packet, hop-decremented TTL included, at the receiver's down-tap. The two
// images differ only in TTL and header checksum.
func TestWireFidelityAcrossFabric(t *testing.T) {
	for _, tc := range []struct {
		name           string
		tapUp, tapDown bool
	}{{"both", true, true}, {"sender-only", true, false}, {"receiver-only", false, true}} {
		t.Run(tc.name, func(t *testing.T) {
			n, h1, h2, _, _ := buildTestNet(t)
			var up, down []byte
			if tc.tapUp {
				h1.Tap(func(at time.Duration, dir Dir, wire []byte) {
					if dir == DirUp {
						up = append([]byte(nil), wire...)
					}
				})
			}
			if tc.tapDown {
				h2.Tap(func(at time.Duration, dir Dir, wire []byte) {
					if dir == DirDown {
						down = append([]byte(nil), wire...)
					}
				})
			}
			var got *packet.Packet
			h2.Handler = func(p *packet.Packet) { got = p.Clone() }

			// A first frame of the same size class leaves its bytes in the
			// pooled buffer the checked frame reuses, so a header left
			// unwritten would show up as stale bytes.
			stale := udpTo(h2.Addr, []byte("stale-frame-xx"))
			stale.UDP.SrcPort, stale.UDP.DstPort = 7, 9
			n.Send(h1, stale)
			n.Sched.Run()
			sent := udpTo(h2.Addr, []byte("fidelity-check"))
			n.Send(h1, sent)
			n.Sched.Run()
			if got == nil || string(got.Payload) != "fidelity-check" {
				t.Fatalf("delivered %+v, want the fidelity-check packet", got)
			}
			if tc.tapUp {
				if want := sent.Marshal(); !bytes.Equal(up, want) {
					t.Fatalf("up-tap bytes != marshal of the sent packet:\n got %x\nwant %x", up, want)
				}
			}
			if tc.tapDown {
				if want := got.Marshal(); !bytes.Equal(down, want) {
					t.Fatalf("down-tap bytes != marshal of the delivered packet:\n got %x\nwant %x", down, want)
				}
				if _, err := packet.Decode(down); err != nil {
					t.Fatalf("down-tap bytes undecodable: %v", err)
				}
			}
			if !tc.tapUp || !tc.tapDown {
				return
			}
			// Up vs down: identical except TTL (byte 8) and checksum (bytes 10-11).
			if len(up) != len(down) {
				t.Fatalf("length changed in flight: up=%d down=%d", len(up), len(down))
			}
			for i := range up {
				if i == 8 || i == 10 || i == 11 {
					continue
				}
				if up[i] != down[i] {
					t.Fatalf("byte %d changed in flight: up=%#x down=%#x", i, up[i], down[i])
				}
			}
			if up[8] == down[8] {
				t.Fatal("TTL not decremented on the wire")
			}
		})
	}
}

// TestMixedFramesAllocFree: interleaved ACK-, datagram- and segment-sized
// frames (40, 300 and 1,440 bytes) cross a warmed fabric, through a tapped
// sender, without allocating, and arrive intact. Each rides a buffer no
// larger than its frame's size class (64, 576 or 1,536 bytes), so a small
// frame never pins a buffer that a large one grew; a frame above the top
// class crosses too and leaves its buffer to no later frame.
func TestMixedFramesAllocFree(t *testing.T) {
	n, h1, h2, _, _ := buildTestNet(t)
	sizes := []int{40, 300, 1440, 40, 1440, 300, 40, 2000} // the last is sent once
	const oversize = 7
	pkts := make([]*packet.Packet, len(sizes))
	for i, size := range sizes {
		payload := bytes.Repeat([]byte{byte(i + 1)}, size-packet.IPv4HeaderLen-packet.UDPHeaderLen)
		pkts[i] = udpTo(h2.Addr, payload)
		pkts[i].UDP.DstPort = uint16(i)
	}
	classCap := func(frame int) int {
		for _, c := range []int{64, 576, 1536} {
			if frame <= c {
				return c
			}
		}
		return frame
	}
	h1.Tap(func(_ time.Duration, _ Dir, wire []byte) {
		if _, ok := packet.PeekFlow(wire); !ok {
			t.Fatalf("up-tap frame of %d bytes does not decode", len(wire))
		}
	})
	delivered := 0
	h2.Handler = func(p *packet.Packet) {
		delivered++
		i := int(p.UDP.DstPort)
		if !bytes.Equal(p.Payload, pkts[i].Payload) {
			t.Fatalf("frame %d arrived with a corrupt payload", i)
		}
		frame := p.WireLen()
		if buf := cap(p.Payload) + frame - len(p.Payload); buf > classCap(frame) {
			t.Fatalf("%d-byte frame rode a %d-byte buffer, above its class (%d)", frame, buf, classCap(frame))
		}
	}
	round := func() {
		for _, p := range pkts[:oversize] {
			n.Send(h1, p)
		}
		n.Sched.Run()
	}
	for i := 0; i < 64; i++ {
		round()
	}
	n.Send(h1, pkts[oversize])
	n.Sched.Run()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("a round of %d mixed frames allocates %.2f objects, want 0", oversize, avg)
	}
	if want := (64+101)*oversize + 1; delivered != want {
		t.Fatalf("delivered %d frames, want %d", delivered, want)
	}
}

// TestUnroutableSendDoesNotConsumeIPID: a send that fails the routability
// check must not perturb the IP ID sequence of delivered traffic.
func TestUnroutableSendDoesNotConsumeIPID(t *testing.T) {
	n, h1, h2, _, _ := buildTestNet(t)
	var ids []uint16
	h2.Handler = func(p *packet.Packet) { ids = append(ids, p.IP.ID) }

	n.Send(h1, udpTo(h2.Addr, []byte("a")))
	n.Sched.Run()
	for i := 0; i < 3; i++ {
		if n.Send(h1, udpTo(packet.MustParseAddr("99.9.9.9"), nil)) {
			t.Fatal("unroutable send returned true")
		}
	}
	n.Send(h1, udpTo(h2.Addr, []byte("b")))
	n.Sched.Run()

	if len(ids) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(ids))
	}
	if ids[1] != ids[0]+1 {
		t.Fatalf("IP ID sequence perturbed by unroutable sends: %d -> %d", ids[0], ids[1])
	}
}

// TestPacketOwnershipAfterSend asserts the documented ownership contract in
// both directions. Once Send returns, the caller's packet and payload are the
// caller's again: overwriting the payload and reusing the same Packet for a
// second send must not change what the first send delivers. And the packet a
// handler receives is the fabric's copy of what was put on the wire, with
// its own payload, ports, IP ID and hop-decremented TTL.
func TestPacketOwnershipAfterSend(t *testing.T) {
	n, h1, h2, _, _ := buildTestNet(t)
	var down [][]byte
	h2.Tap(func(at time.Duration, dir Dir, wire []byte) {
		if dir == DirDown {
			down = append(down, append([]byte(nil), wire...))
		}
	})
	type seen struct {
		port    uint16
		id      uint16
		ttl     uint8
		payload string
	}
	var got []seen
	h2.Handler = func(p *packet.Packet) {
		got = append(got, seen{p.UDP.DstPort, p.IP.ID, p.IP.TTL, string(p.Payload)})
	}

	payload := []byte("owned-by-netsim")
	pkt := udpTo(h2.Addr, payload)
	n.Send(h1, pkt)
	copy(payload, "second-datagram") // the caller reuses buffer and Packet
	pkt.UDP.DstPort = 2001
	n.Send(h1, pkt)
	for i := range payload { // and scribbles over the buffer once more
		payload[i] = 0xFF
	}
	n.Sched.Run()

	want := []seen{
		{2000, 1, DefaultTTL - 3, "owned-by-netsim"},
		{2001, 2, DefaultTTL - 3, "second-datagram"},
	}
	if len(got) != len(want) || len(down) != len(want) {
		t.Fatalf("delivered %d packets (%d on the down-tap), want %d", len(got), len(down), len(want))
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("handler saw packet %d as %+v, want %+v", i, got[i], w)
		}
		if p := down[i][len(down[i])-len(w.payload):]; string(p) != w.payload {
			t.Errorf("down-tap payload %d = %q, want %q", i, p, w.payload)
		}
	}
}

// TestSendDeliverAllocs pins the hot path's allocation budget: once the
// forwarding-state, wire-buffer, and event pools are warm, a full
// Send→forward→deliver round trip must allocate (amortized) less than one
// object per packet.
func TestSendDeliverAllocs(t *testing.T) {
	n, h1, h2, _, _ := buildTestNet(t)
	h2.Handler = func(p *packet.Packet) {}
	pkt := udpTo(h2.Addr, []byte("alloc-budget-check"))
	send := func() { // Send leaves the caller's packet as it was, so reuse it
		n.Send(h1, pkt)
		n.Sched.Run()
	}
	for i := 0; i < 64; i++ { // warm the pools and the scheduler heap
		send()
	}
	if avg := testing.AllocsPerRun(200, send); avg >= 1 {
		t.Fatalf("Send→deliver allocates %.2f objects/op, want < 1", avg)
	}
}

// TestSendDeliverAllocsTraced is the same budget with the flight recorder
// attached: event recording copies into preallocated ring slots, so a traced
// round trip must stay under one allocation per packet too.
func TestSendDeliverAllocsTraced(t *testing.T) {
	n, h1, h2, _, _ := buildTestNet(t)
	n.Tracer = trace.New(1 << 12)
	h2.Handler = func(p *packet.Packet) {}
	pkt := udpTo(h2.Addr, []byte("alloc-budget-check"))
	send := func() {
		n.Send(h1, pkt)
		n.Sched.Run()
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if avg := testing.AllocsPerRun(200, send); avg >= 1 {
		t.Fatalf("traced Send→deliver allocates %.2f objects/op, want < 1", avg)
	}
	if n.Tracer.Count(trace.KindPacketDeliver) == 0 {
		t.Fatal("tracer recorded no events")
	}
}

// TestManySiteRouting drives the route matrix, the linear-scan Dijkstra,
// and the linear path reconstruction through a 40-site line — the shape
// that made the old front-prepend reconstruction quadratic.
func TestManySiteRouting(t *testing.T) {
	const k = 40
	s := simtime.NewScheduler()
	n := New(s, 1, nil)
	sites := make([]*Site, k)
	for i := 0; i < k; i++ {
		loc := geo.Point{Lat: 40, Lon: -120 + float64(i)}
		sites[i] = n.AddSite("s", loc, packet.Addr(0x0a000001+uint32(i)<<8))
		if i > 0 {
			n.Connect(sites[i-1], sites[i])
		}
	}
	a := n.AddHost("a", sites[0], packet.MustParseAddr("1.0.0.1"), WiFiAccess())
	b := n.AddHost("b", sites[k-1], packet.MustParseAddr("1.0.0.2"), WiFiAccess())

	routers := n.PathRouters(a, b.Addr)
	if len(routers) != k {
		t.Fatalf("path length = %d, want %d", len(routers), k)
	}
	for i, r := range routers {
		if want := sites[i].Router; r != want {
			t.Fatalf("hop %d = %v, want %v (path must run the line in order)", i, r, want)
		}
	}

	var got *packet.Packet
	b.Handler = func(p *packet.Packet) { got = p.Clone() }
	n.Send(a, udpTo(b.Addr, []byte("long-haul")))
	s.Run()
	if got == nil {
		t.Fatal("packet not delivered across 40 sites")
	}
	if got.IP.TTL != DefaultTTL-k {
		t.Fatalf("TTL = %d, want %d (one decrement per site)", got.IP.TTL, DefaultTTL-k)
	}

	// Topology edits must invalidate the matrix: a direct shortcut between
	// the ends collapses the path to two sites.
	n.Connect(sites[0], sites[k-1])
	if routers := n.PathRouters(a, b.Addr); len(routers) != 2 {
		t.Fatalf("after shortcut, path length = %d, want 2", len(routers))
	}
}

// TestRouteTieBreakPrefersLowerIndex: of two equal-delay paths, the route
// runs through the lower-index site, because routing settles the nearest
// site first and the lowest index among equals. The higher-index middle
// site is connected first, so neighbour order cannot decide it.
func TestRouteTieBreakPrefersLowerIndex(t *testing.T) {
	n := New(simtime.NewScheduler(), 1, nil)
	src := n.AddSite("src", geo.Point{Lat: 0, Lon: 0}, packet.MustParseAddr("10.0.0.1"))
	lo := n.AddSite("lo", geo.Point{Lat: 1, Lon: 1}, packet.MustParseAddr("10.1.0.1"))
	hi := n.AddSite("hi", geo.Point{Lat: -1, Lon: 1}, packet.MustParseAddr("10.2.0.1"))
	dst := n.AddSite("dst", geo.Point{Lat: 0, Lon: 2}, packet.MustParseAddr("10.3.0.1"))
	n.Connect(src, hi)
	n.Connect(hi, dst)
	n.Connect(src, lo)
	n.Connect(lo, dst)
	if d := n.pathDelay([]*Site{src, lo, dst}); d != n.pathDelay([]*Site{src, hi, dst}) {
		t.Fatalf("precondition: the two paths differ in delay (%v via lo)", d)
	}
	p := n.sitePath(src, dst)
	if len(p) != 3 {
		t.Fatalf("path has %d sites, want 3", len(p))
	}
	if p[1] != lo {
		t.Fatalf("path runs through %v, want the lower-index site %v", p[1].Router, lo.Router)
	}
}

// TestAnycastNearerInstanceAddedLaterWins: an instance that AddAnycast puts
// in a group after a resolution wins the next one when it is nearer.
func TestAnycastNearerInstanceAddedLaterWins(t *testing.T) {
	n, h1, _, east, west := buildTestNet(t)
	svc := packet.MustParseAddr("200.0.0.1")
	far := n.AddHost("far", west, packet.MustParseAddr("10.2.0.9"), DatacenterAccess())
	n.AddAnycast(svc, far)
	if got, ok := n.Resolve(svc, h1.Site); !ok || got != far {
		t.Fatalf("resolve = %v,%v want far instance", got, ok)
	}
	if got, _ := n.Resolve(svc, h1.Site); got != far {
		t.Fatal("a second resolution changed with nothing edited")
	}
	near := n.AddHost("near", east, packet.MustParseAddr("10.0.0.9"), DatacenterAccess())
	n.AddAnycast(svc, near)
	if got, ok := n.Resolve(svc, h1.Site); !ok || got != near {
		t.Fatalf("resolve after AddAnycast = %v,%v want near instance", got, ok)
	}
}
