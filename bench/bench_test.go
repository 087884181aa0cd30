package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/svrlab/svrlab"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/platform"
)

// TestMain lets the test binary serve as the child process, so the tests
// below drive the same re-exec path the benchmark uses.
func TestMain(m *testing.M) {
	if spec, ok := os.LookupEnv(childEnv); ok {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

const testGolden = "../artifacts_seed42.txt"

// smoke is a workload cheap enough for every test run.
var smoke = workload{
	Name: "smoke",
	IDs:  []string{"fig3"},
	Cell: cellPlan{Platform: platform.RecRoom, Users: 2, Dur: 5 * time.Second},
}

func testBencher(t *testing.T, golden string) *bencher {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &bencher{exe: exe, seed: goldenSeed, golden: golden}
}

func TestGoldenSplitterMatchesRegistryAndRun(t *testing.T) {
	golden, err := loadGolden(testGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range svrlab.Experiments() {
		if golden[info.ID] == "" {
			t.Errorf("no golden section for %s", info.ID)
		}
	}
	if len(golden) != len(svrlab.Experiments()) {
		t.Errorf("%d golden sections, %d experiments", len(golden), len(svrlab.Experiments()))
	}
	for _, id := range []string{"fig3", "table1"} {
		res, err := svrlab.Run(id, svrlab.Options{Seed: goldenSeed, Repeats: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Render(); got != golden[id] {
			t.Errorf("%s: golden section differs from svrlab.Run:\n%q\n%q", id, golden[id], got)
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 3}, 0.5, 2, 3.5},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		in := slices.Clone(c.xs)
		s := summarize(c.xs)
		if s.Q1 != c.q1 || s.Median != c.m || s.Q3 != c.q3 || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1=%v median=%v q3=%v", c.xs, s, c.q1, c.m, c.q3)
		}
		if !slices.Equal(in, c.xs) {
			t.Errorf("summarize reordered its input: %v", c.xs)
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v", s)
	}
	if got := summarize([]float64{9, 10, 11}).spread(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread = %v, want 0.2", got)
	}
}

// TestTimingsScaleByHostProbe checks that a run on a host twice as slow as
// the reference reads half its measured time, and that the probe works.
func TestTimingsScaleByHostProbe(t *testing.T) {
	s := &runSet{setup: []float64{0.002}, runs: []*childResult{{
		WallS: 10, CPUS: 16, ProbeS: 2 * refProbeS, Counters: map[string]int64{packetsSent: 1000},
	}}}
	m := endToEndSamples(s)
	if m["wall_s"][0] != 5 || m["cpu_s"][0] != 8 || m["pkts_per_s"][0] != 200 || m["setup_s"][0] != 0.002 {
		t.Errorf("samples %v", m)
	}
	if p, err := probeHost(3); err != nil || p <= 0 {
		t.Errorf("probeHost = %v, %v", p, err)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "pkts_per_s", Better: "higher", Bound: 0.10}
	base := []float64{10, 10.1, 10.2, 9.9, 10}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"within bound", lower, base, []float64{10.5, 10.4, 10.6, 10.5, 10.3}, unchanged},
		{"slower", lower, base, []float64{12, 12.1, 11.9, 12, 12.2}, worse},
		{"faster", lower, base, []float64{8, 8.1, 7.9, 8, 8.2}, improved},
		{"higher is better", higher, base, []float64{12, 12.1, 11.9, 12, 12.2}, improved},
		{"wide and overlapping", lower, base, []float64{7, 14, 9, 13, 10}, unresolved},
		{"wide but every run faster", lower, base, []float64{6, 9.8, 6.5, 9.7, 7}, improved},
		{"wide but every run much slower", lower, base, []float64{11, 16, 12, 15, 13}, worse},
	} {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRowsAndRefusal(t *testing.T) {
	fp := fingerprint{CPU: "cpu", GOMAXPROCS: 2, Go: "go1", GitSHA: "a"}
	mk := func(wall []float64, failed int) results {
		return results{Fingerprint: fp, Seed: 42, Workloads: []workloadResults{{
			Name: "w", Attempted: 5, Failed: failed,
			EndToEnd: []metricResults{{metricDef: endToEnd[0], Samples: wall}},
		}}}
	}
	base := mk([]float64{10, 10, 10, 10, 10}, 0)
	for _, c := range []struct {
		name      string
		change    results
		wantWorse bool
		wantRow   string
	}{
		{"same", mk([]float64{10, 10, 10, 10, 10}, 0), false, "w             unchanged"},
		{"slower", mk([]float64{13, 13, 13, 13, 13}, 0), true, "w             worse"},
		{"more failures", mk([]float64{10, 10, 10, 10, 10}, 1), true, "w             worse"},
	} {
		var out bytes.Buffer
		if got := compareResults(base, c.change, &out); got != c.wantWorse || !strings.HasPrefix(out.String(), c.wantRow) {
			t.Errorf("%s: worse=%v, row %q", c.name, got, out.String())
		}
	}

	dir := t.TempDir()
	other := base
	other.Fingerprint.CPU = "another cpu"
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeJSON(a, base); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(b, other); err != nil {
		t.Fatal(err)
	}
	if code := compareMain([]string{a, b}, &bytes.Buffer{}); code != 2 {
		t.Errorf("compare across machines exited %d, want 2", code)
	}
}

func TestLayerOfInnermostSvrlabFrame(t *testing.T) {
	p := &profile{
		strings: []string{"",
			"runtime.mallocgc",
			modulePrefix + "packet.MarshalTo",
			modulePrefix + "netsim.(*Fabric).Send",
			modulePrefix + "experiment.Scaling.func1",
			"github.com/svrlab/svrlab.Run",
			"crypto/sha256.block",
		},
		functions: map[uint64]int64{1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6},
		// Location 2 holds packet.MarshalTo inlined into netsim.Send.
		locations: map[uint64][]uint64{1: {1}, 2: {2, 3}, 3: {4}, 4: {5}, 5: {6}},
	}
	for _, c := range []struct {
		stack []uint64
		want  string
	}{
		{[]uint64{1, 2, 3, 4}, "packet"},
		{[]uint64{1, 3, 4}, "experiment"},
		{[]uint64{5, 4}, "runtime"},
		{[]uint64{1}, "runtime"},
	} {
		if got := p.sampleLayer(sample{locations: c.stack}); got != c.want {
			t.Errorf("stack %v charged to %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestAttributeRecordedProfile records a CPU profile of two busy loops —
// one inside internal/packet, one in plain library code — and checks that
// the reader charges them to packet and runtime.
func TestAttributeRecordedProfile(t *testing.T) {
	pk := &packet.Packet{
		IP:  packet.IPv4{Src: packet.MustParseAddr("10.0.0.1"), Dst: packet.MustParseAddr("10.0.0.2"), TTL: 64, Protocol: packet.ProtoUDP},
		UDP: &packet.UDP{SrcPort: 1, DstPort: 2},
	}
	pk.Payload = make([]byte, 1000)
	buf := make([]byte, 0, 2048)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			buf = pk.MarshalTo(buf[:0])
		}
	}
	data := make([]byte, 1<<16)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 100; i++ {
			sum := sha256.Sum256(data)
			data[0] = sum[0]
		}
	}
	pprof.StopCPUProfile()

	cpu, err := attribute(prof.Bytes(), "cpu")
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range cpu {
		total += v
	}
	if total == 0 {
		t.Fatal("the profile recorded no samples")
	}
	// Under the race detector most samples land in its C runtime, which
	// has no Go frames, so only the set of layers is checked, not shares.
	if cpu["packet"] == 0 || cpu["runtime"] == 0 || cpu["packet"]+cpu["runtime"] != total {
		t.Errorf("charged %v of %v ns; want it split between packet and runtime alone", cpu, total)
	}
	if _, err := attribute(prof.Bytes(), "alloc_space"); err == nil {
		t.Error("a CPU profile has no alloc_space column, but attribute found one")
	}
}

// TestCorruptedGoldenFailsEveryRun corrupts fig3's golden section: a number
// must fail runs at seed 42, and a missing line must fail runs at any seed.
func TestCorruptedGoldenFailsEveryRun(t *testing.T) {
	text, err := os.ReadFile(testGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		seed     int64
		old, new string
	}{
		{goldenSeed, "mean ratio (u2-down / u1-up) = 1.05", "mean ratio (u2-down / u1-up) = 1.06"},
		{7, "  t= 15s  u1-up=    46.5  u2-down=    49.1\n", ""},
	} {
		bad := strings.Replace(string(text), c.old, c.new, 1)
		if bad == string(text) {
			t.Fatalf("the fig3 line %q is missing", c.old)
		}
		path := filepath.Join(t.TempDir(), "golden.txt")
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		b := testBencher(t, path)
		b.seed = c.seed
		sets, err := b.collect([]workload{smoke}, plan{rounds: 2})
		if err != nil {
			t.Fatal(err)
		}
		if s := sets[0]; s.attempted != 2 || s.failed != 2 {
			t.Errorf("seed %d: attempted %d, failed %d; want fail_ratio 1 over 2 runs", c.seed, s.attempted, s.failed)
		}
	}
}

// TestSmokeChildProcessPath drives a --workload measurement end to end on
// fig3, both end-to-end and per-layer, and checks the result line.
func TestSmokeChildProcessPath(t *testing.T) {
	b := testBencher(t, testGolden)
	for _, layers := range []bool{false, true} {
		var out bytes.Buffer
		if code := b.oneWorkload(smoke, time.Second, layers, &out); code != 0 {
			t.Fatalf("layers=%v: exit %d\n%s", layers, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if !strings.HasPrefix(lines[0], "fingerprint: ") {
			t.Errorf("output starts with %q, want the fingerprint", lines[0])
		}
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("layers=%v: last line is not the result: %v", layers, err)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("layers=%v: %+v", layers, line)
		}
		var want []string
		if layers {
			for _, d := range perLayerDefs() {
				want = append(want, d.Name)
			}
		} else {
			for _, d := range endToEnd {
				want = append(want, d.Name)
			}
		}
		for _, name := range want {
			if _, ok := line.Metrics[name]; !ok {
				t.Errorf("layers=%v: metric %s missing", layers, name)
			}
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("layers=%v: %d metrics, want %d", layers, len(line.Metrics), len(want))
		}
		if layers && line.Metrics["cell.events"].Value == 0 {
			t.Error("the cell dispatched no events")
		}
		if !layers && line.Metrics["wall_s"].Value <= 0 {
			t.Error("wall_s is not positive")
		}
	}
}

// TestAllWorkloadsWritesComparableResults runs at seed 7, where runs are
// checked against each other and against the golden layout only.
func TestAllWorkloadsWritesComparableResults(t *testing.T) {
	b := testBencher(t, testGolden)
	b.seed = 7
	path := filepath.Join(t.TempDir(), "r.json")
	if code := b.allWorkloads([]workload{smoke}, 2, path, &bytes.Buffer{}); code != 0 {
		t.Fatalf("exit %d", code)
	}
	var out bytes.Buffer
	if code := compareMain([]string{path, path}, &out); code != 0 {
		t.Errorf("comparing a result with itself exited %d:\n%s", code, out.String())
	}
	// fig3 runs take milliseconds, so wall time may spread wider than its
	// bound and read unresolved; nothing may read worse.
	if !strings.Contains(out.String(), "\nsmoke ") || strings.Contains(out.String(), worse) {
		t.Errorf("want a smoke row with nothing worse, got:\n%s", out.String())
	}
}

// TestBenchmarkJSONMatchesCode keeps the metric names, units and bounds
// in BENCHMARK.json and the code in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []layerDef  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end\n%v\nwant\n%v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayerDefs()) {
		t.Errorf("per_layer\n%v\nwant\n%v", spec.PerLayer, perLayerDefs())
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %s, want %s", i, spec.Workloads[i].Name, w.Name)
		}
	}
}
