package chaos

import (
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/geo"
	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/simtime"
	"github.com/svrlab/svrlab/internal/trace"
)

// testNet wires a 3-site line: a -- b -- c with a host on each end.
func testNet(t *testing.T) (*simtime.Scheduler, *netsim.Network, *netsim.Host, *netsim.Host) {
	t.Helper()
	s := simtime.NewScheduler()
	n := netsim.New(s, 1, nil)
	a := n.AddSite("a", geo.Fairfax, packet.MustParseAddr("10.0.0.1"))
	b := n.AddSite("b", geo.Minneapolis, packet.MustParseAddr("10.1.0.1"))
	c := n.AddSite("c", geo.SanJose, packet.MustParseAddr("10.2.0.1"))
	n.Connect(a, b)
	n.Connect(b, c)
	h1 := n.AddHost("u1", a, packet.MustParseAddr("10.0.0.2"), netsim.WiFiAccess())
	h2 := n.AddHost("u2", c, packet.MustParseAddr("10.2.0.2"), netsim.WiFiAccess())
	return s, n, h1, h2
}

func ping(dst packet.Addr) *packet.Packet {
	return &packet.Packet{
		IP:      packet.IPv4{Protocol: packet.ProtoUDP, Dst: dst},
		UDP:     &packet.UDP{SrcPort: 1, DstPort: 2},
		Payload: []byte("x"),
	}
}

func TestHostCrashWindow(t *testing.T) {
	s, n, h1, h2 := testNet(t)
	delivered := 0
	h2.Handler = func(*packet.Packet) { delivered++ }

	sc := &Schedule{Net: n, Faults: []Fault{
		{Kind: HostCrash, Host: h2, Start: 10 * time.Second, Duration: 10 * time.Second},
	}}
	end := sc.Run(s, 0)
	if end != 20*time.Second {
		t.Fatalf("end = %v, want 20s", end)
	}

	// One send before, one during, one after the outage.
	sends := []time.Duration{5 * time.Second, 15 * time.Second, 25 * time.Second}
	for _, at := range sends {
		s.At(at, func() { n.Send(h1, ping(h2.Addr)) })
	}
	s.Run()
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2 (outage packet dropped)", delivered)
	}
	if len(sc.Applied) != 2 {
		t.Fatalf("applied = %d transitions, want 2", len(sc.Applied))
	}
	if sc.Applied[0].Event != "inject" || sc.Applied[1].Event != "heal" {
		t.Fatalf("applied = %+v", sc.Applied)
	}
	c := n.Conservation()
	if !c.Conserved() {
		t.Fatalf("conservation violated: %+v", c)
	}
}

func TestLinkFlap(t *testing.T) {
	s, n, h1, h2 := testNet(t)
	sites := n.Sites()
	delivered := 0
	h2.Handler = func(*packet.Packet) { delivered++ }

	// 1s outages at t=10,14,18 (period 4s): 3 cycles total.
	sc := &Schedule{Net: n, Faults: []Fault{
		{Kind: LinkCut, SiteA: sites[0], SiteB: sites[1], Start: 10 * time.Second, Duration: time.Second, Flaps: 2, Period: 4 * time.Second},
	}}
	end := sc.Run(s, 0)
	if end != 19*time.Second {
		t.Fatalf("end = %v, want 19s", end)
	}
	// During an outage a->c is unroutable (no alternate path on a line).
	s.At(10500*time.Millisecond, func() {
		if n.Send(h1, ping(h2.Addr)) {
			t.Error("Send during link cut returned true")
		}
	})
	// Between flaps it works.
	s.At(12*time.Second, func() {
		if !n.Send(h1, ping(h2.Addr)) {
			t.Error("Send between flaps returned false")
		}
	})
	s.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	if len(sc.Applied) != 6 {
		t.Fatalf("applied = %d transitions, want 6 (3 cycles x inject+heal)", len(sc.Applied))
	}
}

func TestPartitionTraceStamps(t *testing.T) {
	s, n, _, _ := testNet(t)
	tr := trace.New(64)
	n.Tracer = tr
	sc := &Schedule{Net: n, Faults: []Fault{
		{Kind: Partition, SiteA: n.Sites()[2], Start: time.Second, Duration: time.Second},
	}}
	sc.Run(s, 0)
	s.Run()
	var chaosEvents []trace.Event
	tr.Each(func(ev trace.Event) {
		if ev.Kind == trace.KindChaos {
			chaosEvents = append(chaosEvents, ev)
		}
	})
	if len(chaosEvents) != 2 {
		t.Fatalf("chaos trace events = %d, want 2", len(chaosEvents))
	}
	if chaosEvents[0].Name != "partition:inject" || chaosEvents[0].Track != "c" {
		t.Fatalf("event 0 = %+v", chaosEvents[0])
	}
	if chaosEvents[1].Name != "partition:heal" {
		t.Fatalf("event 1 = %+v", chaosEvents[1])
	}
}

func TestSpecParseBindRun(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"faults": [
		{"kind": "host-crash", "host": "u2", "start": "5s", "duration": "3s"},
		{"kind": "link-cut", "sites": ["a", "b"], "start": "1s", "duration": "1s"},
		{"kind": "partition", "site": "c", "start": "10s", "duration": "2s", "label": "west-gone"}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Empty() {
		t.Fatal("spec reported empty")
	}
	s, n, _, _ := testNet(t)
	sc, err := spec.Bind(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Faults) != 3 {
		t.Fatalf("bound %d faults, want 3", len(sc.Faults))
	}
	end := sc.Run(s, 0)
	if end != 12*time.Second {
		t.Fatalf("end = %v, want 12s", end)
	}
	s.Run()
	if len(sc.Applied) != 6 {
		t.Fatalf("applied = %d, want 6", len(sc.Applied))
	}
	// The labeled fault reports its label.
	found := false
	for _, a := range sc.Applied {
		if a.Label == "west-gone" {
			found = true
		}
	}
	if !found {
		t.Fatal("custom label not in Applied log")
	}
}

func TestSpecErrors(t *testing.T) {
	bad := []string{
		`{"faults": [{"kind": "meteor", "start": "1s"}]}`,
		`{"faults": [{"kind": "host-crash", "host": "u1"}]}`, // missing start
		`{"faults": [{"kind": "host-crash", "host": "u1", "start": "-1s"}]}`,
		`not json`,
	}
	for _, in := range bad {
		if _, err := ParseSpec([]byte(in)); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", in)
		}
	}
	spec, err := ParseSpec([]byte(`{"faults": [{"kind": "host-crash", "host": "ghost", "start": "1s"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	_, n, _, _ := testNet(t)
	if _, err := spec.Bind(n); err == nil {
		t.Fatal("Bind with unknown host succeeded, want error")
	}
	spec2, _ := ParseSpec([]byte(`{"faults": [{"kind": "link-cut", "sites": ["a"], "start": "1s"}]}`))
	if _, err := spec2.Bind(n); err == nil {
		t.Fatal("Bind with one-site link-cut succeeded, want error")
	}
}

// TestBindRejectsUnlinkedSites: a link-cut between two known sites that
// share no backbone link fails at Bind, with an error naming both sites,
// instead of panicking in SetLinkDown when the fault fires. On the a -- b --
// c line, a and c are not adjacent; a and b are.
func TestBindRejectsUnlinkedSites(t *testing.T) {
	_, n, _, _ := testNet(t)
	spec, err := ParseSpec([]byte(`{"faults": [{"kind": "link-cut", "sites": ["a", "c"], "start": "1s"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	const want = "chaos spec: fault 0: no link between a and c"
	if sc, err := spec.Bind(n); err == nil || err.Error() != want || sc != nil {
		t.Fatalf("Bind = %v, %v; want error %q", sc, err, want)
	}
	spec, err = ParseSpec([]byte(`{"faults": [{"kind": "link-cut", "sites": ["b", "a"], "start": "1s"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Bind(n); err != nil {
		t.Fatalf("Bind of a link-cut between adjacent sites: %v", err)
	}
}

// TestEmptySpecIsNoOp is the byte-identity baseline: binding and running an
// empty (or nil) spec must schedule nothing at all.
func TestEmptySpecIsNoOp(t *testing.T) {
	s, n, _, _ := testNet(t)
	var nilSpec *Spec
	sc, err := nilSpec.Bind(n)
	if err != nil {
		t.Fatal(err)
	}
	if !nilSpec.Empty() {
		t.Fatal("nil spec not Empty")
	}
	before := s.Pending()
	if end := sc.Run(s, 0); end != 0 {
		t.Fatalf("empty schedule end = %v, want 0", end)
	}
	if s.Pending() != before {
		t.Fatal("empty schedule posted scheduler events")
	}
	if len(sc.Applied) != 0 {
		t.Fatal("empty schedule applied transitions")
	}
}
