package netsim

import (
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/obs"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/trace"
)

// requireRegistryIsLedger fails unless every fabric packet counter in the
// registry equals the network's ledger.
func requireRegistryIsLedger(t *testing.T, reg *obs.Registry, c Conservation) {
	t.Helper()
	want := map[string]int64{
		"netsim.packets.sent":          c.Sent,
		"netsim.packets.delivered":     c.Delivered,
		"netsim.packets.icmp_injected": c.ICMPInjected,
	}
	for i, d := range c.Drops {
		want[causes[i].metric] = d
	}
	snap := reg.Snapshot()
	for name, v := range want {
		e, ok := snap.Get(name)
		if !ok || e.Kind != obs.KindCounter || e.Value != v {
			t.Errorf("registry %s = %+v, ledger says %d", name, e, v)
		}
	}
}

// TestLedgerIsTheOnlyRecord forces every drop cause in turn and checks that
// the ledger, the trace, and the flushed registry tell one story: exactly
// one ledger bucket moves, exactly one drop span carries that cause's label,
// and the registry holds exactly the ledger's counts.
func TestLedgerIsTheOnlyRecord(t *testing.T) {
	const size = 200 // payload bytes: 228 on the wire, 228 ms at 8 kbit/s
	slow := func(l *Link) { l.BandwidthBps, l.MaxQueue = 8000, 100*time.Millisecond }
	cases := []struct {
		cause Cause
		sends int // packets sent back to back; only the last one dies
		setup func(n *Network, h1, h2 *Host)
		mod   func(p *packet.Packet)
	}{
		{CauseAccessUp, 2, func(n *Network, h1, h2 *Host) { slow(h1.Up) }, nil},
		{CauseAccessDown, 2, func(n *Network, h1, h2 *Host) { slow(h2.Down) }, nil},
		{CauseBackbone, 2, func(n *Network, h1, h2 *Host) { slow(n.sites[0].LinkTo(n.sites[1])) }, nil},
		{CauseNetemLossUp, 1, func(n *Network, h1, h2 *Host) { h1.UpNetem = &Netem{Loss: 1} }, nil},
		{CauseNetemLossDown, 1, func(n *Network, h1, h2 *Host) { h2.DownNetem = &Netem{Loss: 1} }, nil},
		{CauseNetemQueueUp, 3, func(n *Network, h1, h2 *Host) { h1.UpNetem = &Netem{RateBps: 8000} }, nil},
		{CauseNetemQueueDown, 3, func(n *Network, h1, h2 *Host) { h2.DownNetem = &Netem{RateBps: 8000} }, nil},
		{CauseTTL, 1, nil, func(p *packet.Packet) { p.IP.TTL = 1 }},
		{CauseHostDown, 1, func(n *Network, h1, h2 *Host) { // destination crashes in flight
			n.Sched.After(5*time.Millisecond, func() { n.SetHostDown(h2, true) })
		}, nil},
		{CauseHostDown, 1, func(n *Network, h1, h2 *Host) { // source crashes before departure
			h1.UpNetem = &Netem{Delay: 10 * time.Millisecond}
			n.Sched.After(5*time.Millisecond, func() { n.SetHostDown(h1, true) })
		}, nil},
		{CauseLinkDown, 1, func(n *Network, h1, h2 *Host) {
			n.Sched.After(3*time.Millisecond, func() { n.SetLinkDown(n.sites[1], n.sites[2], true) })
		}, nil},
		{CauseUnroutable, 1, nil, func(p *packet.Packet) { p.IP.Dst = packet.MustParseAddr("99.9.9.9") }},
		{CauseHostDownTx, 1, func(n *Network, h1, h2 *Host) { n.SetHostDown(h1, true) }, nil},
	}
	for _, tc := range cases {
		t.Run(causes[tc.cause].label, func(t *testing.T) {
			n, h1, h2, _, _ := buildTestNet(t)
			n.Tracer = trace.New(1 << 12)
			if tc.setup != nil {
				tc.setup(n, h1, h2)
			}
			for i := 0; i < tc.sends; i++ {
				p := udpTo(h2.Addr, make([]byte, size))
				if tc.mod != nil {
					tc.mod(p)
				}
				n.Send(h1, p)
			}
			n.Sched.Run()

			c := n.Conservation()
			for cause, d := range c.Drops {
				want := int64(0)
				if Cause(cause) == tc.cause {
					want = 1
				}
				if d != want {
					t.Errorf("Drops[%s] = %d, want %d", causes[cause].label, d, want)
				}
			}
			var spans []string
			n.Tracer.Each(func(ev trace.Event) {
				if ev.Kind == trace.KindPacketDrop {
					spans = append(spans, ev.Name)
				}
			})
			if len(spans) != 1 || spans[0] != causes[tc.cause].label {
				t.Errorf("drop spans = %q, want [%q]", spans, causes[tc.cause].label)
			}
			mustConserve(t, n)

			n.FlushMetrics()
			requireRegistryIsLedger(t, n.Metrics, c)
		})
	}
}

// TestSharedRegistrySumsNetworks: two networks sharing one registry add
// up, as sweep cells sharing a registry do — the ledger's counts, the
// queueing-delay histograms and the ICMP counts alike.
func TestSharedRegistrySumsNetworks(t *testing.T) {
	reg := obs.NewRegistry()
	nets := make([]*Network, 2)
	for i := range nets {
		n, h1, h2, _, _ := buildTestNet(t)
		n.Metrics = reg
		h2.Handler = func(*packet.Packet) {}
		for round := 0; round < 2; round++ {
			for k := 0; k < 5; k++ {
				n.Send(h1, udpTo(h2.Addr, []byte("x")))
			}
			n.Send(h1, udpTo(packet.MustParseAddr("99.9.9.9"), nil))
			n.Sched.Run()
		}
		n.FlushMetrics()
		nets[i] = n
	}
	var sum Conservation
	for _, n := range nets {
		c := n.Conservation()
		sum.Sent += c.Sent
		sum.Delivered += c.Delivered
		for i := range c.Drops {
			sum.Drops[i] += c.Drops[i]
		}
	}
	if sum.Sent != 20 || sum.Drops[CauseUnroutable] != 4 {
		t.Fatalf("ledgers sum to %+v, want 20 sent and 4 unroutable", sum)
	}
	requireRegistryIsLedger(t, reg, sum)
	// Every delivered packet crossed both access links once; no router sent
	// ICMP, yet each ICMP count is listed, at zero.
	snap := reg.Snapshot()
	for _, name := range qdelayMetrics[:linkBackbone] {
		if e, ok := snap.Get(name); !ok || e.Count != sum.Delivered {
			t.Errorf("registry %s = %+v, want %d observations", name, e, sum.Delivered)
		}
	}
	for _, name := range icmpMetrics {
		if e, ok := snap.Get(name); !ok || e.Kind != obs.KindCounter || e.Value != 0 {
			t.Errorf("registry %s = %+v, %v; want a zero counter", name, e, ok)
		}
	}
}

// TestSecondFlushPanics: each owner adds its totals, so a second
// FlushMetrics on one network would count every packet twice; it panics
// instead, before adding anything.
func TestSecondFlushPanics(t *testing.T) {
	n, h1, h2, _, _ := buildTestNet(t)
	n.Send(h1, udpTo(h2.Addr, []byte("x")))
	n.Sched.Run()
	n.FlushMetrics()
	defer func() {
		if recover() == nil {
			t.Fatal("a second FlushMetrics did not panic")
		}
		requireRegistryIsLedger(t, n.Metrics, n.Conservation())
	}()
	n.FlushMetrics()
}
