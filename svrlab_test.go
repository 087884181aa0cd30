package svrlab_test

import (
	"strings"
	"sync"
	"testing"

	"github.com/svrlab/svrlab"
)

func TestExperimentsRegistryComplete(t *testing.T) {
	infos := svrlab.Experiments()
	want := []string{
		"decimate", "disrupt-lat", "fig11", "fig12", "fig13", "fig13tcp",
		"fig2", "fig3", "fig6", "fig6all", "fig6b", "fig7", "fig9", "p2p",
		"remote", "resilience", "table1", "table2", "table3", "table4", "viewport",
	}
	if len(infos) != len(want) {
		t.Fatalf("experiments = %d, want %d", len(infos), len(want))
	}
	for i, w := range want {
		if infos[i].ID != w {
			t.Fatalf("experiment %d = %q, want %q", i, infos[i].ID, w)
		}
		if infos[i].Artifact == "" || infos[i].Title == "" {
			t.Fatalf("experiment %q missing metadata", infos[i].ID)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := svrlab.Run("fig99", svrlab.Options{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunTable1ThroughPublicAPI(t *testing.T) {
	res, err := svrlab.Run("table1", svrlab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, p := range svrlab.Platforms() {
		if !strings.Contains(out, string(p)) {
			t.Fatalf("artifact missing %v:\n%s", p, out)
		}
	}
}

func TestPlatformConstants(t *testing.T) {
	ps := svrlab.Platforms()
	if len(ps) != 5 {
		t.Fatalf("platforms = %v", ps)
	}
	seen := map[svrlab.Platform]bool{}
	for _, p := range ps {
		seen[p] = true
	}
	for _, p := range []svrlab.Platform{svrlab.AltspaceVR, svrlab.Worlds, svrlab.Hubs, svrlab.RecRoom, svrlab.VRChat} {
		if !seen[p] {
			t.Fatalf("missing platform %v", p)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	a, err := svrlab.Run("fig3", svrlab.Options{Seed: 5, Platform: svrlab.RecRoom})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svrlab.Run("fig3", svrlab.Options{Seed: 5, Platform: svrlab.RecRoom})
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatal("same seed produced different artifacts")
	}
	c, err := svrlab.Run("fig3", svrlab.Options{Seed: 6, Platform: svrlab.RecRoom})
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() == c.Render() {
		t.Fatal("different seeds produced identical artifacts (suspicious)")
	}
}

// TestWorkerPoolDeterminism is the runner's determinism contract: a sweep
// run serially and the same sweep fanned out over 8 workers must produce
// byte-identical rendered artifacts. Run under -race this also proves the
// cells share no mutable state.
func TestWorkerPoolDeterminism(t *testing.T) {
	opts := func(workers int) svrlab.Options {
		return svrlab.Options{Seed: 42, Repeats: 2, Counts: []int{1, 3}, Workers: workers}
	}
	serial, err := svrlab.Run("fig7", opts(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := svrlab.Run("fig7", opts(8))
	if err != nil {
		t.Fatal(err)
	}
	if s, p := serial.Render(), parallel.Render(); s != p {
		t.Fatalf("serial and 8-worker artifacts differ:\n--- serial ---\n%s\n--- workers=8 ---\n%s", s, p)
	}
}

// TestConcurrentRunsAreIndependent runs the same experiment with identical
// seeds in N goroutines at once: every lab must be fully self-contained, so
// all renders are identical (and -race sees no shared state).
func TestConcurrentRunsAreIndependent(t *testing.T) {
	const goroutines = 6
	outs := make([]string, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := svrlab.Run("fig7", svrlab.Options{
				Seed: 7, Repeats: 2, Counts: []int{2}, Platform: svrlab.RecRoom, Workers: 1,
			})
			if err != nil {
				errs[g] = err
				return
			}
			outs[g] = res.Render()
		}()
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if outs[g] != outs[0] {
			t.Fatalf("goroutine %d produced a different artifact:\n%s\nvs\n%s", g, outs[g], outs[0])
		}
	}
}

// TestAuditAndEmptyChaosAreByteIdentical: a shared registry, which receives
// the flushed fabric ledger and the auditor's coverage tallies at every
// lab's teardown, and an empty chaos spec, which schedules nothing, must
// not change a single artifact byte.
func TestAuditAndEmptyChaosAreByteIdentical(t *testing.T) {
	base, err := svrlab.Run("resilience", svrlab.Options{Seed: 42, Repeats: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	flipped, err := svrlab.Run("resilience", svrlab.Options{
		Seed: 42, Repeats: 1, Workers: 2,
		Metrics: svrlab.NewMetricsRegistry(),
		Chaos:   &svrlab.ChaosSpec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if b, f := base.Render(), flipped.Render(); b != f {
		t.Fatalf("shared registry+empty chaos changed the artifact:\n--- base ---\n%s\n--- flipped ---\n%s", b, f)
	}
}

func TestNewLabIsUsable(t *testing.T) {
	lab := svrlab.NewLab(1)
	if lab.Sched == nil || lab.Dep == nil {
		t.Fatal("lab not initialized")
	}
	lab.Sched.RunUntil(0)
}
