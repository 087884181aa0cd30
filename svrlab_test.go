package svrlab_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/svrlab/svrlab"
	"github.com/svrlab/svrlab/internal/experiment"
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

// TestRunReturnsBadChaosSpec: a chaos spec that does not bind in a cell is
// an error from Run, not a panic on a runner worker, and the error names the
// first cell in sweep order at any worker count. Every fig11 cell lacks
// client-u9, and no table3 cell has a backbone link between campus and
// europe.
func TestRunReturnsBadChaosSpec(t *testing.T) {
	for _, tc := range []struct{ file, id, cell, cause string }{
		{"chaos_unknown_host.json", "fig11", "fig11/Rec Room/n2", `fault 0: unknown host "client-u9"`},
		{"chaos_unlinked_sites.json", "table3", "table3/AltspaceVR/rep0/chat", "fault 0: no link between campus and europe"},
	} {
		b, err := os.ReadFile(filepath.Join("internal", "experiment", "testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := svrlab.ParseChaosSpec(b)
		if err != nil {
			t.Fatal(err)
		}
		want := "experiment: chaos spec in cell " + tc.cell + ": chaos spec: " + tc.cause
		for _, workers := range []int{1, 4} {
			res, err := svrlab.Run(tc.id, svrlab.Options{Seed: 42, Repeats: 1, Workers: workers, Chaos: spec})
			if err == nil || err.Error() != want || res != nil {
				t.Fatalf("%s workers=%d: Run = %v, %v; want error %q", tc.file, workers, res, err, want)
			}
			var ce *experiment.ChaosError
			if !errors.As(err, &ce) || ce.Cell != tc.cell {
				t.Fatalf("%s workers=%d: error %v is not a ChaosError for the first cell", tc.file, workers, err)
			}
		}
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

// TestDeterminismAcrossRuns: a different seed gives a different artifact.
// TestGoldenArtifacts holds each seed-42 artifact to its bytes.
func TestDeterminismAcrossRuns(t *testing.T) {
	a, err := svrlab.Run("fig3", svrlab.Options{Seed: 5, Platform: svrlab.RecRoom})
	if err != nil {
		t.Fatal(err)
	}
	c, err := svrlab.Run("fig3", svrlab.Options{Seed: 6, Platform: svrlab.RecRoom})
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() == c.Render() {
		t.Fatal("different seeds produced identical artifacts (suspicious)")
	}
}

// TestWorkerPoolDeterminism is the runner's determinism contract: a fig7
// sweep run serially and the same sweep fanned out over 8 workers, with
// every option set — a shared registry, a trace collector, a pcap directory
// and a 1 s campus–us-east link cut at 30 s — must produce byte-identical
// artifacts, stable metrics, trace exports and pcap files. Run under -race
// this also proves the cells share no mutable state.
func TestWorkerPoolDeterminism(t *testing.T) {
	cut, err := svrlab.ParseChaosSpec([]byte(`{"faults": [
		{"kind": "link-cut", "sites": ["campus", "us-east"], "start": "30s", "duration": "1s"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	// run returns the artifact, the stable metrics, the text trace and
	// each pcap file, named.
	run := func(workers int) []string {
		reg, c, dir := svrlab.NewMetricsRegistry(), svrlab.NewTraceCollector(), t.TempDir()
		res, err := svrlab.Run("fig7", svrlab.Options{
			Seed: 42, Repeats: 2, Counts: []int{1, 3}, Workers: workers,
			Metrics: reg, Trace: c, PcapDir: dir, Chaos: cut,
		})
		if err != nil {
			t.Fatal(err)
		}
		var tr strings.Builder
		if err := c.Export(&tr, "text"); err != nil {
			t.Fatal(err)
		}
		out := []string{res.Render(), reg.Snapshot().Stable().String(), tr.String()}
		names, err := filepath.Glob(filepath.Join(dir, "*.pcap"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			b, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, filepath.Base(name)+"\n"+string(b))
		}
		return out
	}
	serial, parallel := run(1), run(8)
	// 2 counts × 2 repeats: four cells, each with one pcap and one cut.
	if len(serial) != 3+4 || len(parallel) != len(serial) {
		t.Fatalf("%d and %d outputs, want 3 plus 4 pcaps", len(serial), len(parallel))
	}
	if n := strings.Count(serial[2], "link-cut:inject"); n != 4 {
		t.Fatalf("trace shows %d link cuts, want one per cell", n)
	}
	for i, what := range []string{"artifact", "stable metrics", "trace", "pcap", "pcap", "pcap", "pcap"} {
		if serial[i] != parallel[i] {
			t.Fatalf("serial and 8-worker %s differ:\n--- serial ---\n%.2000s\n--- workers=8 ---\n%.2000s", what, serial[i], parallel[i])
		}
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

func TestNewLabIsUsable(t *testing.T) {
	lab := svrlab.NewLab(1)
	if lab.Sched == nil || lab.Dep == nil {
		t.Fatal("lab not initialized")
	}
	lab.Sched.RunUntil(0)
}
