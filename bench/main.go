// Command bench measures what it costs svrlab to regenerate the paper's
// artifacts, end to end and split across its layers, and compares two such
// measurements. Run it from the repository root; bench/run.sh builds it and
// passes its arguments on:
//
//	bench [-runs 5] [-seed 42] [-out FILE]
//	bench --workload NAME --seed N --seconds S --trace 0|1
//	bench compare A.json B.json
//
// The first form measures every workload: set-up-only runs, one traced run
// and one cell run each, then -runs untraced runs each, interleaved
// round-robin with the first workload rotating each round. The second
// measures one workload for S seconds and prints, as its last line, one
// JSON object with the end-to-end metrics (trace 0) or the per-layer
// metrics (trace 1).
//
// Every run is this program re-executed as a child, one at a time, so each
// starts with a fresh heap. At seed 42 every artifact must equal its
// section of artifacts_seed42.txt; at any seed it must have that section's
// layout, and every run must repeat the first run's artifacts. Packets sent
// must repeat exactly. A run that fails a check, or whose conservation
// audit panics, counts as failed. End-to-end timings are scaled by a host
// probe (hostprobe.go). bench/README.md lists the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// goldenFile is the `svrlab all -seed 42 -repeats 1` transcript, relative
// to the repository root.
const goldenFile = "artifacts_seed42.txt"

// setupRuns is how many set-up-only runs each workload's measurement adds,
// so that setup_s is a median over at least this many samples.
const setupRuns = 20

func main() {
	if spec, ok := os.LookupEnv(childEnv); ok {
		os.Exit(childMain(spec))
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "measure only this workload, for -seconds")
	seed := fs.Int64("seed", goldenSeed, "simulation seed (42 also checks artifacts against "+goldenFile+")")
	seconds := fs.Int("seconds", 0, "with -workload: how long to measure")
	trace := fs.Int("trace", 0, "with -workload: 1 reports the per-layer metrics instead of the end-to-end ones")
	runs := fs.Int("runs", 5, "without -workload: untraced runs per workload")
	out := fs.String("out", "", "without -workload: also write the results as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b := &bencher{exe: exe, seed: *seed, golden: goldenFile}

	if *name == "" {
		if *runs < 1 {
			fmt.Fprintln(os.Stderr, "bench: -runs must be at least 1")
			return 2
		}
		return b.allWorkloads(workloads, *runs, *out, stdout)
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need a known --workload, --seconds >= 1 and --trace 0|1 (workloads: %s)\n", workloadNames())
		return 2
	}
	return b.oneWorkload(w, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// bencher starts child runs and checks what they return.
type bencher struct {
	exe    string
	seed   int64
	golden string
}

// runSet accumulates the runs of one workload.
type runSet struct {
	w      workload
	runs   []*childResult // untraced runs that returned a result
	setup  []float64      // setup_s of every untraced and set-up-only run, in reference-host seconds
	traced *childResult
	cell   *cellResult
	// ref is the first run whose artifacts passed; later runs must repeat
	// its artifacts and packet count.
	ref               *childResult
	attempted, failed int
	longest           time.Duration // longest untraced run, set-up included
}

// plan says which runs collect makes.
type plan struct {
	setups int           // set-up-only runs per workload
	layers bool          // one traced run and one cell run per workload
	rounds int           // rounds of untraced runs; 0 = until budget
	budget time.Duration // stop starting rounds that would end past this
}

// collect makes the runs of p. Untraced runs go round-robin over the
// workloads, the first workload rotating each round; the first round
// always runs.
func (b *bencher) collect(ws []workload, p plan) ([]*runSet, error) {
	start := time.Now()
	sets := make([]*runSet, len(ws))
	for i, w := range ws {
		s := &runSet{w: w}
		sets[i] = s
		for j := 0; j < p.setups; j++ {
			probe, err := probeHost(1)
			if err != nil {
				return nil, err
			}
			r, err := b.child(childSpec{Mode: "setup"})
			if err != nil {
				return nil, err
			}
			s.setup = append(s.setup, r.SetupS*refProbeS/probe)
		}
		if p.layers {
			var err error
			if s.traced, err = b.probedRun(s, "trace"); err != nil {
				return nil, err
			}
			if s.traced == nil {
				return nil, fmt.Errorf("%s: the traced run failed", w.Name)
			}
			if s.cell = b.cell(s); s.cell == nil {
				return nil, fmt.Errorf("%s: the cell run failed", w.Name)
			}
		}
	}
	for round := 0; p.rounds == 0 || round < p.rounds; round++ {
		for k := range sets {
			s := sets[(round+k)%len(sets)]
			if p.budget > 0 && round > 0 && time.Since(start)+s.longest > p.budget {
				return sets, nil
			}
			t := time.Now()
			r, err := b.probedRun(s, "run")
			if err != nil {
				return nil, err
			}
			s.longest = max(s.longest, time.Since(t))
			if r != nil {
				s.runs = append(s.runs, r)
				s.setup = append(s.setup, r.SetupS*refProbeS/r.ProbeS)
			}
		}
	}
	return sets, nil
}

// probedRun makes one run of the workload's artifacts between two host
// probes, and records their mean in the result.
func (b *bencher) probedRun(s *runSet, mode string) (*childResult, error) {
	before, err := probeHost(3)
	if err != nil {
		return nil, err
	}
	r := b.artifacts(s, mode)
	after, err := probeHost(3)
	if err != nil {
		return nil, err
	}
	if r != nil {
		r.ProbeS = (before + after) / 2
	}
	return r, nil
}

// child runs one child process and decodes its result.
func (b *bencher) child(spec childSpec) (*childResult, error) {
	spec.Seed, spec.Golden = b.seed, b.golden
	enc, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(b.exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(enc))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", spec.Mode, err)
	}
	var r childResult
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("%s child: bad result: %w", spec.Mode, err)
	}
	return &r, nil
}

// artifacts makes one run of the workload's artifacts and checks it. It
// returns nil when the run produced no result.
func (b *bencher) artifacts(s *runSet, mode string) *childResult {
	s.attempted++
	r, err := b.child(childSpec{Mode: mode, IDs: s.w.IDs})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.w.Name, err)
		s.failed++
		return nil
	}
	if err := b.check(s, r); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s %s: %v\n", s.w.Name, mode, err)
		s.failed++
	}
	return r
}

func (b *bencher) check(s *runSet, r *childResult) error {
	if len(r.Mismatch) > 0 {
		return fmt.Errorf("%s do not match %s", strings.Join(r.Mismatch, ", "), b.golden)
	}
	if s.ref == nil {
		s.ref = r
		return nil
	}
	for id, h := range s.ref.Hashes {
		if r.Hashes[id] != h {
			return fmt.Errorf("%s differs from the first run's", id)
		}
	}
	if got, want := r.Counters[packetsSent], s.ref.Counters[packetsSent]; got != want {
		return fmt.Errorf("%d packets sent, the first run sent %d", got, want)
	}
	return nil
}

// cell drives the workload's representative cell in a child.
func (b *bencher) cell(s *runSet) *cellResult {
	s.attempted++
	r, err := b.child(childSpec{Mode: "cell", Cell: s.w.Cell})
	if err == nil && (r.Cell == nil || r.Cell.Events == 0) {
		err = errors.New("the cell dispatched no events")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.w.Name, err)
		s.failed++
		return nil
	}
	return r.Cell
}

// oneWorkload measures one workload for budget and prints the result
// line: end-to-end metrics, or per-layer ones when layers is set.
func (b *bencher) oneWorkload(w workload, budget time.Duration, layers bool, stdout io.Writer) int {
	p := plan{setups: setupRuns, budget: budget}
	if layers {
		p = plan{layers: true, budget: budget}
	}
	fmt.Fprintln(stdout, readFingerprint())
	sets, err := b.collect([]workload{w}, p)
	if err == nil && len(sets[0].runs) == 0 {
		err = errors.New("no run returned a result")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	s := sets[0]
	line := resultLine{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]valueUnit{}}
	if layers {
		vals := perLayer(s)
		printLayers(stdout, s, vals)
		for _, d := range perLayerDefs() {
			line.Metrics[d.Name] = valueUnit{vals[d.Name], d.Unit}
		}
	} else {
		sums := printEndToEnd(stdout, s)
		for _, d := range endToEnd {
			line.Metrics[d.Name] = valueUnit{sums[d.Name].Median, d.Unit}
		}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	return 0
}

// resultLine is the last line a --workload run prints.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// results is what an all-workload measurement writes with -out, and what
// compare reads.
type results struct {
	Fingerprint fingerprint       `json:"fingerprint"`
	Seed        int64             `json:"seed"`
	Runs        int               `json:"runs"`
	Workloads   []workloadResults `json:"workloads"`
}

type workloadResults struct {
	Name      string               `json:"name"`
	IDs       []string             `json:"ids"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  []metricResults      `json:"end_to_end"`
	PerLayer  map[string]valueUnit `json:"per_layer"`
	// ProbeS holds the host probe around each untraced run, in the order of
	// the end-to-end samples: a timing sample × ProbeS / refProbeS is the
	// time as measured.
	ProbeS []float64 `json:"probe_s"`
}

func (w workloadResults) failRatio() float64 {
	return ratio(float64(w.Failed), float64(w.Attempted))
}

type metricResults struct {
	metricDef
	summary
	Samples []float64 `json:"samples"`
}

// allWorkloads measures every workload, prints the report and writes the
// results to out when it is set. It fails when any run failed.
func (b *bencher) allWorkloads(ws []workload, runs int, out string, stdout io.Writer) int {
	fp := readFingerprint()
	fmt.Fprintln(stdout, fp)
	sets, err := b.collect(ws, plan{setups: setupRuns, layers: true, rounds: runs})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res := results{Fingerprint: fp, Seed: b.seed, Runs: runs}
	failed := 0
	for _, s := range sets {
		failed += s.failed
		samples := endToEndSamples(s)
		sums := printEndToEnd(stdout, s)
		vals := perLayer(s)
		printLayers(stdout, s, vals)
		wr := workloadResults{Name: s.w.Name, IDs: s.w.IDs, Attempted: s.attempted, Failed: s.failed,
			PerLayer: make(map[string]valueUnit)}
		for _, d := range endToEnd {
			wr.EndToEnd = append(wr.EndToEnd, metricResults{d, sums[d.Name], samples[d.Name]})
		}
		for _, d := range perLayerDefs() {
			wr.PerLayer[d.Name] = valueUnit{vals[d.Name], d.Unit}
		}
		for _, r := range s.runs {
			wr.ProbeS = append(wr.ProbeS, r.ProbeS)
		}
		res.Workloads = append(res.Workloads, wr)
	}
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d runs failed\n", failed)
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	enc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

// printEndToEnd prints each end-to-end metric as a median with quartiles,
// then the median timings as measured, and returns the summaries.
func printEndToEnd(w io.Writer, s *runSet) map[string]summary {
	fmt.Fprintf(w, "\n%s (%s): %d runs attempted, %d failed, fail_ratio %.3f\n",
		s.w.Name, strings.Join(s.w.IDs, " "), s.attempted, s.failed, ratio(float64(s.failed), float64(s.attempted)))
	fmt.Fprintf(w, "  %-14s %-9s %12s %12s %12s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
	sums := make(map[string]summary)
	samples := endToEndSamples(s)
	for _, d := range endToEnd {
		sm := summarize(samples[d.Name])
		sums[d.Name] = sm
		fmt.Fprintf(w, "  %-14s %-9s %12.5g %12.5g %12.5g %4d\n", d.Name, d.Unit, sm.Median, sm.Q1, sm.Q3, sm.N)
	}
	var wall, cpu, probe []float64
	for _, r := range s.runs {
		wall = append(wall, r.WallS)
		cpu = append(cpu, r.CPUS)
		probe = append(probe, r.ProbeS)
	}
	fmt.Fprintf(w, "  timings above are in reference-host seconds; as measured, median wall_s %.5g, cpu_s %.5g, host probe %.4g ms (reference %.4g ms)\n",
		summarize(wall).Median, summarize(cpu).Median, 1e3*summarize(probe).Median, 1e3*refProbeS)
	return sums
}

func printLayers(w io.Writer, s *runSet, vals map[string]float64) {
	fmt.Fprintf(w, "\n%s per layer (one traced run, one cell run):\n", s.w.Name)
	for _, d := range perLayerDefs() {
		fmt.Fprintf(w, "  %-24s %-6s %14.6g\n", d.Name, d.Unit, vals[d.Name])
	}
}

// fingerprint names the machine and code a measurement comes from.
type fingerprint struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GitSHA     string `json:"git_sha"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("fingerprint: cpu=%q gomaxprocs=%d go=%s git=%s", f.CPU, f.GOMAXPROCS, f.Go, f.GitSHA)
}

// sameMachine reports whether two measurements can be compared: the same
// CPU model, parallelism and toolchain. The commit may differ.
func (f fingerprint) sameMachine(g fingerprint) bool {
	return f.CPU == g.CPU && f.GOMAXPROCS == g.GOMAXPROCS && f.Go == g.Go
}

func readFingerprint() fingerprint {
	fp := fingerprint{CPU: "unknown", GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), GitSHA: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	git := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	git.Env = append(os.Environ(), "GIT_DIR=.git") // look no further than the working directory
	if sha, err := git.Output(); err == nil {
		fp.GitSHA = strings.TrimSpace(string(sha))
	}
	return fp
}
