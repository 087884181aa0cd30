package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"github.com/svrlab/svrlab"
	"github.com/svrlab/svrlab/internal/experiment"
	"github.com/svrlab/svrlab/internal/obs"
	"github.com/svrlab/svrlab/internal/platform"
)

// childEnv carries a childSpec to a re-executed copy of the benchmark, so
// that every measured run starts with a fresh heap and its own peak.
const childEnv = "SVRBENCH_CHILD"

// goldenSeed is the seed artifacts_seed42.txt was generated with.
const goldenSeed = 42

// childSpec is what the parent asks one child process to do.
type childSpec struct {
	// Mode is "setup" (set up and exit), "run" (regenerate IDs), "trace"
	// (regenerate IDs under CPU and allocation profiling) or "cell" (drive
	// Cell by hand).
	Mode   string   `json:"mode"`
	IDs    []string `json:"ids"`
	Cell   cellPlan `json:"cell"`
	Seed   int64    `json:"seed"`
	Golden string   `json:"golden"`
}

// childResult is what a child prints on its standard output.
type childResult struct {
	SetupS     float64            `json:"setup_s"`
	WallS      float64            `json:"wall_s"`
	CPUS       float64            `json:"cpu_s"`
	AllocBytes uint64             `json:"alloc_bytes"`
	Mallocs    uint64             `json:"mallocs"`
	PeakHeap   uint64             `json:"peak_heap_bytes"`
	GCCPUS     float64            `json:"gc_cpu_s"`
	GCCycles   uint64             `json:"gc_cycles"`
	Hashes     map[string]string  `json:"hashes,omitempty"`
	Mismatch   []string           `json:"mismatch,omitempty"`
	Counters   map[string]int64   `json:"counters,omitempty"`
	LayerCPU   map[string]float64 `json:"layer_cpu_s,omitempty"`
	LayerAlloc map[string]float64 `json:"layer_alloc_bytes,omitempty"`
	Cell       *cellResult        `json:"cell,omitempty"`
	// ProbeS is the parent's host probe around a traced or untraced run.
	ProbeS float64 `json:"-"`
}

func childMain(specJSON string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 2
	}
	res, err := runChild(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	return 0
}

// runChild sets up the way every run does — load the golden artifacts,
// build one lab and spawn one client — then does what spec.Mode asks.
// Set-up time is the CPU time the process has used by then, runtime start
// included. On a shared machine the wall time of a start-up this short
// mostly measures waiting for a CPU: in one sample of six runs, median
// wall set-up ranged 1.3-3.4 ms while median CPU set-up stayed 1.2-1.7 ms.
func runChild(spec childSpec) (*childResult, error) {
	golden, err := loadGolden(spec.Golden)
	if err != nil {
		return nil, err
	}
	for _, id := range spec.IDs {
		if _, ok := golden[id]; !ok {
			return nil, fmt.Errorf("%s has no section for %q", spec.Golden, id)
		}
	}
	experiment.NewLab(spec.Seed).Spawn(platform.VRChat, 1, experiment.SpawnOpts{})
	res := &childResult{SetupS: cpuSeconds()}

	switch spec.Mode {
	case "setup":
	case "cell":
		c := driveCell(spec.Cell, spec.Seed)
		res.Cell = &c
	case "run", "trace":
		err = regenerate(spec, golden, res)
	default:
		err = fmt.Errorf("unknown mode %q", spec.Mode)
	}
	return res, err
}

// regenerate runs the artifacts through svrlab.Run, as the CLI does, and
// records their cost, their hashes, and which differ from the golden file.
func regenerate(spec childSpec, golden map[string]string, res *childResult) error {
	var cpuProf bytes.Buffer
	traced := spec.Mode == "trace"
	if traced {
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			return err
		}
	}
	reg := svrlab.NewMetricsRegistry()
	res.Hashes = make(map[string]string)
	stopPeak := startPeakSampler()
	before := readCosts()
	start := time.Now()
	for _, id := range spec.IDs {
		a, err := svrlab.Run(id, svrlab.Options{Seed: spec.Seed, Repeats: 1, Workers: runtime.GOMAXPROCS(0), Metrics: reg})
		if err != nil {
			panic(err) // ids were checked against the golden file
		}
		text := a.Render()
		sum := sha256.Sum256([]byte(text))
		res.Hashes[id] = hex.EncodeToString(sum[:])
		if spec.Seed == goldenSeed && text != golden[id] || !sameLayout(text, golden[id]) {
			res.Mismatch = append(res.Mismatch, id)
		}
	}
	res.WallS = time.Since(start).Seconds()
	after := readCosts()
	res.PeakHeap = stopPeak()
	if traced {
		pprof.StopCPUProfile()
	}

	res.CPUS = after.cpu - before.cpu
	res.AllocBytes = after.alloc - before.alloc
	res.Mallocs = after.mallocs - before.mallocs
	res.GCCPUS = after.gcCPU - before.gcCPU
	res.GCCycles = after.gcCycles - before.gcCycles
	res.Counters = make(map[string]int64)
	for _, e := range reg.Snapshot().Entries {
		if e.Kind == obs.KindCounter {
			res.Counters[e.Name] = e.Value
		}
	}
	if !traced {
		return nil
	}

	runtime.GC() // the allocation profile is complete as of the last GC
	var allocProf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&allocProf, 0); err != nil {
		return err
	}
	cpu, err := attribute(cpuProf.Bytes(), "cpu")
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	res.LayerCPU = make(map[string]float64, len(cpu))
	for l, ns := range cpu {
		res.LayerCPU[l] = ns / 1e9
	}
	if res.LayerAlloc, err = attribute(allocProf.Bytes(), "alloc_space"); err != nil {
		return fmt.Errorf("allocation profile: %w", err)
	}
	return nil
}

// costs is a reading of the process's cumulative resource use.
type costs struct {
	cpu            float64 // user + system seconds
	alloc, mallocs uint64
	gcCPU          float64
	gcCycles       uint64
}

// cpuSeconds is the user and system time of the whole process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF with a valid pointer cannot fail
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func readCosts() costs {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(gc)
	return costs{
		cpu:      cpuSeconds(),
		alloc:    ms.TotalAlloc,
		mallocs:  ms.Mallocs,
		gcCPU:    gc[0].Value.Float64(),
		gcCycles: gc[1].Value.Uint64(),
	}
}

// startPeakSampler polls the bytes held by live and not-yet-swept heap
// objects every 10 ms. It returns a function that stops the poller, waits
// for it, and reports the largest value seen.
func startPeakSampler() (stop func() uint64) {
	done := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var max uint64
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > max {
				max = v
			}
			select {
			case <-done:
				peak <- max
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-peak
	}
}

// sameLayout reports whether an artifact has the layout of its golden
// section: the same title line and the same number of lines. At seeds other
// than 42 the numbers differ but the rows, panels and plot heights do not,
// so this is the check a run at such a seed can make on its own.
func sameLayout(got, want string) bool {
	gotTitle, _, _ := strings.Cut(got, "\n")
	wantTitle, _, _ := strings.Cut(want, "\n")
	return gotTitle == wantTitle && strings.Count(got, "\n") == strings.Count(want, "\n")
}

func loadGolden(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden artifacts: %w", err)
	}
	return splitGolden(string(b)), nil
}

// splitGolden splits an `svrlab all` transcript into artifacts by id. Each
// section is a "==== <id> (<artifact>) ====" line, the artifact exactly as
// Render returns it, and one blank line.
func splitGolden(text string) map[string]string {
	out := make(map[string]string)
	var id string
	var body strings.Builder
	flush := func() {
		if id != "" {
			out[id] = strings.TrimSuffix(body.String(), "\n")
		}
		body.Reset()
	}
	for _, line := range strings.SplitAfter(text, "\n") {
		if strings.HasPrefix(line, "==== ") && strings.HasSuffix(line, " ====\n") {
			flush()
			id = strings.Fields(line)[1]
			continue
		}
		body.WriteString(line)
	}
	flush()
	return out
}
