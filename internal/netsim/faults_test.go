package netsim

import (
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/geo"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/simtime"
)

// mustConserve asserts the global packet identity at the current point.
func mustConserve(t *testing.T, n *Network) {
	t.Helper()
	c := n.Conservation()
	if !c.Conserved() {
		t.Fatalf("conservation violated: %+v (dropped=%d)", c, c.Dropped())
	}
}

func TestHostDownRefusesSend(t *testing.T) {
	n, h1, h2, _, _ := buildTestNet(t)
	n.SetHostDown(h1, true)
	if n.Send(h1, udpTo(h2.Addr, []byte("x"))) {
		t.Fatal("Send from a down host returned true")
	}
	c := n.Conservation()
	if c.Drops[CauseHostDownTx] != 1 || c.Sent != 0 {
		t.Fatalf("HostDownTx=%d Sent=%d, want 1/0", c.Drops[CauseHostDownTx], c.Sent)
	}
	mustConserve(t, n)

	// Restart: sends flow again.
	n.SetHostDown(h1, false)
	delivered := 0
	h2.Handler = func(*packet.Packet) { delivered++ }
	if !n.Send(h1, udpTo(h2.Addr, []byte("y"))) {
		t.Fatal("Send after restart returned false")
	}
	n.Sched.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	mustConserve(t, n)
}

func TestHostDownDropsInboundInFlight(t *testing.T) {
	n, h1, h2, _, _ := buildTestNet(t)
	delivered := 0
	h2.Handler = func(*packet.Packet) { delivered++ }
	if !n.Send(h1, udpTo(h2.Addr, []byte("x"))) {
		t.Fatal("Send returned false")
	}
	// Crash the destination while the packet crosses the backbone.
	n.Sched.After(5*time.Millisecond, func() { n.SetHostDown(h2, true) })
	n.Sched.Run()
	if delivered != 0 {
		t.Fatal("packet delivered to a crashed host")
	}
	c := n.Conservation()
	if c.Drops[CauseHostDown] != 1 {
		t.Fatalf("HostDown drops = %d, want 1", c.Drops[CauseHostDown])
	}
	mustConserve(t, n)
}

func TestLinkDownDropsAndReroutes(t *testing.T) {
	// Triangle so a downed edge has an alternative path.
	s := simtime.NewScheduler()
	n := New(s, 1)
	a := n.AddSite("a", geo.Fairfax, packet.MustParseAddr("10.0.0.1"))
	b := n.AddSite("b", geo.Minneapolis, packet.MustParseAddr("10.1.0.1"))
	c := n.AddSite("c", geo.SanJose, packet.MustParseAddr("10.2.0.1"))
	n.Connect(a, b)
	n.Connect(b, c)
	n.Connect(a, c)
	h1 := n.AddHost("u1", a, packet.MustParseAddr("10.0.0.2"), WiFiAccess())
	h2 := n.AddHost("u2", c, packet.MustParseAddr("10.2.0.2"), WiFiAccess())

	// Direct a-c is the short path.
	if p := n.sitePath(a, c); len(p) != 2 {
		t.Fatalf("direct path length = %d, want 2", len(p))
	}
	n.SetLinkDown(a, c, true)
	if p := n.sitePath(a, c); len(p) != 3 {
		t.Fatalf("rerouted path length = %d, want 3 (via b)", len(p))
	}
	delivered := 0
	h2.Handler = func(*packet.Packet) { delivered++ }
	if !n.Send(h1, udpTo(h2.Addr, []byte("x"))) {
		t.Fatal("Send returned false")
	}
	s.Run()
	if delivered != 1 {
		t.Fatal("packet not delivered over reroute")
	}
	n.SetLinkDown(a, c, false)
	if p := n.sitePath(a, c); len(p) != 2 {
		t.Fatalf("restored path length = %d, want 2", len(p))
	}
	mustConserve(t, n)
}

func TestLinkDownDropsInFlightPacket(t *testing.T) {
	n, h1, h2, east, _ := buildTestNet(t)
	mid := n.sites[1]
	delivered := 0
	h2.Handler = func(*packet.Packet) { delivered++ }
	if !n.Send(h1, udpTo(h2.Addr, []byte("x"))) {
		t.Fatal("Send returned false")
	}
	// The packet was routed east->mid->west; cut mid-west while it is
	// crossing east->mid so it dies at the dead link.
	n.Sched.After(3*time.Millisecond, func() { n.SetLinkDown(mid, n.sites[2], true) })
	n.Sched.Run()
	if delivered != 0 {
		t.Fatal("packet delivered across a downed link")
	}
	c := n.Conservation()
	if c.Drops[CauseLinkDown] != 1 {
		t.Fatalf("LinkDown drops = %d, want 1", c.Drops[CauseLinkDown])
	}
	mustConserve(t, n)
	_ = east
}

func TestSitePartitionIsolatesAndHeals(t *testing.T) {
	n, h1, h2, _, west := buildTestNet(t)
	n.SetSitePartitioned(west, true)
	if n.Send(h1, udpTo(h2.Addr, []byte("x"))) {
		t.Fatal("Send into a partitioned site returned true (should be unroutable)")
	}
	c := n.Conservation()
	if c.Drops[CauseUnroutable] != 1 {
		t.Fatalf("Unroutable = %d, want 1", c.Drops[CauseUnroutable])
	}
	n.SetSitePartitioned(west, false)
	delivered := 0
	h2.Handler = func(*packet.Packet) { delivered++ }
	if !n.Send(h1, udpTo(h2.Addr, []byte("y"))) {
		t.Fatal("Send after heal returned false")
	}
	n.Sched.Run()
	if delivered != 1 {
		t.Fatal("packet not delivered after heal")
	}
	mustConserve(t, n)
}

func TestAnycastFailoverSkipsDownInstance(t *testing.T) {
	n, h1, _, east, west := buildTestNet(t)
	mid := n.sites[1]
	svc := packet.MustParseAddr("100.0.0.1")
	near := n.AddHost("svc-east", east, packet.MustParseAddr("10.0.0.9"), DatacenterAccess())
	far := n.AddHost("svc-west", west, packet.MustParseAddr("10.2.0.9"), DatacenterAccess())
	n.AddAnycast(svc, near, far)

	if got, _ := n.ResolveAnycast(svc, east); got != near {
		t.Fatalf("resolved %v, want near instance", got.ID)
	}
	n.SetHostDown(near, true)
	if got, _ := n.ResolveAnycast(svc, east); got != far {
		t.Fatalf("resolved %v after crash, want far instance", got.ID)
	}
	// Restart flips resolution back (cache invalidated on both transitions).
	n.SetHostDown(near, false)
	if got, _ := n.ResolveAnycast(svc, east); got != near {
		t.Fatalf("resolved %v after restart, want near instance", got.ID)
	}
	// Both instances down: unresolvable.
	n.SetHostDown(near, true)
	n.SetHostDown(far, true)
	if _, ok := n.ResolveAnycast(svc, east); ok {
		t.Fatal("resolved an anycast group with every instance down")
	}
	_ = h1
	_ = mid
}

// TestLinkLedgerBalances checks the per-link conservation ledger: every
// offered packet is either carried or dropped, and bytes match.
func TestLinkLedgerBalances(t *testing.T) {
	n, h1, h2, _, _ := buildTestNet(t)
	h2.Handler = func(*packet.Packet) {}
	for i := 0; i < 50; i++ {
		n.Send(h1, udpTo(h2.Addr, make([]byte, 200)))
	}
	n.Sched.Run()
	check := func(name string, l *Link) {
		t.Helper()
		if l.DroppedPackets > l.OfferedPackets {
			t.Fatalf("%s: dropped %d > offered %d", name, l.DroppedPackets, l.OfferedPackets)
		}
		if l.CarriedBytes > l.OfferedBytes {
			t.Fatalf("%s: carried %d bytes > offered %d", name, l.CarriedBytes, l.OfferedBytes)
		}
	}
	check("u1.Up", h1.Up)
	check("u2.Down", h2.Down)
	if h1.Up.OfferedPackets != 50 {
		t.Fatalf("u1 up offered = %d, want 50", h1.Up.OfferedPackets)
	}
	if h2.Down.CarriedBytes == 0 {
		t.Fatal("u2 down carried no bytes")
	}
	mustConserve(t, n)
}

// TestConservationWithTTLAndICMP exercises the two paths PR 7 fixed: TTL
// drops now count, and router-injected ICMP errors balance their own
// delivery.
func TestConservationWithTTLAndICMP(t *testing.T) {
	n, h1, h2, _, _ := buildTestNet(t)
	h1.Handler = func(*packet.Packet) {}
	pkt := udpTo(h2.Addr, []byte("probe"))
	pkt.IP.TTL = 1 // dies at the first router
	if !n.Send(h1, pkt) {
		t.Fatal("Send returned false")
	}
	n.Sched.Run()
	c := n.Conservation()
	if c.Drops[CauseTTL] != 1 {
		t.Fatalf("TTL drops = %d, want 1", c.Drops[CauseTTL])
	}
	if c.ICMPInjected != 1 {
		t.Fatalf("ICMPInjected = %d, want 1", c.ICMPInjected)
	}
	if c.Delivered != 1 { // the ICMP error itself
		t.Fatalf("Delivered = %d, want 1", c.Delivered)
	}
	mustConserve(t, n)
}
