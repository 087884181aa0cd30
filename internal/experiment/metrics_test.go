package experiment

import (
	"testing"

	"github.com/svrlab/svrlab/internal/obs"
	"github.com/svrlab/svrlab/internal/platform"
)

// TestMetricsDeterministicAcrossWorkers runs the same sweep serially and
// in parallel with a shared registry and requires byte-identical artifacts
// AND byte-identical stable metric snapshots: every registry operation
// commutes, so worker count must not leak into the numbers.
func TestMetricsDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) (artifact, metrics string, snap obs.Snapshot) {
		reg := obs.NewRegistry()
		r := Scaling(platform.RecRoom, []int{1, 3}, 2, 81, workers, reg, nil)
		s := reg.Snapshot()
		return r.Render(), s.Stable().String(), s
	}
	art1, met1, snap1 := run(1)
	art4, met4, _ := run(4)
	if art1 != art4 {
		t.Fatal("artifact differs between Workers=1 and Workers=4")
	}
	if met1 != met4 {
		t.Fatalf("stable metric snapshots differ between worker counts:\n--- w=1 ---\n%s--- w=4 ---\n%s", met1, met4)
	}

	// The sweep above is 2 counts × 2 repeats = 4 cells.
	if got := snap1.Counter("runner.cells"); got != 4 {
		t.Fatalf("runner.cells = %d, want 4", got)
	}
	// The cells' labs all feed the shared registry: core layers must have
	// left traces.
	for _, name := range []string{
		"netsim.packets.sent",
		"netsim.packets.delivered",
		"transport.conns_dialed",
		"secure.handshakes",
		"device.samples",
	} {
		if snap1.Counter(name) == 0 {
			t.Errorf("expected nonzero %s; metrics:\n%s", name, snap1)
		}
	}
	// Wall-clock timing is recorded but must be flagged volatile.
	e, ok := snap1.Get("runner.cell_wall")
	if !ok || !e.Volatile {
		t.Fatalf("runner.cell_wall missing or not volatile: %+v", e)
	}
	// Queueing-delay histograms exist on the access links.
	if e, ok := snap1.Get("netsim.qdelay.access_up"); !ok || e.Count == 0 {
		t.Fatal("no access-link queue-delay observations")
	}
}

// TestLabPrivateRegistryByDefault: experiments invoked with a nil registry
// still observe into a per-lab registry reachable via Lab.Metrics(). The
// fabric's packet counts arrive at teardown, when MustConserve flushes the
// ledger.
func TestLabPrivateRegistryByDefault(t *testing.T) {
	l := NewLab(7)
	if l.Metrics() == nil {
		t.Fatal("lab has no metrics registry")
	}
	l.Spawn(platform.RecRoom, 1, SpawnOpts{})
	l.Sched.RunUntil(5e9)
	l.MustConserve()
	if l.Metrics().Snapshot().Counter("netsim.packets.sent") == 0 {
		t.Fatal("private registry recorded nothing")
	}
}
