// Command svrlab regenerates the paper's tables and figures from the
// simulation lab.
//
// Usage:
//
//	svrlab list                      # enumerate experiments
//	svrlab run <id> [flags]          # run one experiment
//	svrlab all [flags]               # run every experiment
//
// Flags:
//
//	-seed N        random seed (default 42)
//	-repeats N     repetition count override (0 = experiment default)
//	-platform P    platform override for single-platform experiments
//	-users a,b,c   user-count sweep override
//	-workers N     worker pool size for parallel sweeps (0 = GOMAXPROCS);
//	               any value yields bit-identical artifacts
//	-format F      artifact output format: text (default) or json
//	-metrics       print the lab's metrics table (drops, queueing delay,
//	               retransmits, ...) after each artifact
//	-trace F       record a flight-recorder trace of every simulation cell
//	               and write it to F after the run
//	-trace-format  trace export format: chrome (default; open in Perfetto
//	               or chrome://tracing) or text
//	-pcap DIR      save each traced cell's U1 capture tap as DIR/<cell>.pcap
//	-cpuprofile F  write a pprof CPU profile of the run to F
//	-memprofile F  write a pprof heap profile (after the run) to F
//	-chaos F       inject the JSON fault schedule in F (host crashes, link
//	               cuts, site partitions) into chaos-aware experiments
//	-audit         print the conservation-audit coverage summary (the
//	               auditor itself always runs and fails loudly on violation)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"github.com/svrlab/svrlab"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	seed := fs.Int64("seed", 42, "random seed")
	repeats := fs.Int("repeats", 0, "repetition count (0 = default)")
	platformName := fs.String("platform", "", "platform override")
	users := fs.String("users", "", "comma-separated user counts")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	format := fs.String("format", "text", "output format: text or json")
	metrics := fs.Bool("metrics", false, "print the metrics table after each artifact")
	traceOut := fs.String("trace", "", "write a flight-recorder trace to this file")
	traceFormat := fs.String("trace-format", "chrome", "trace format: chrome or text")
	pcapDir := fs.String("pcap", "", "save per-cell capture taps as pcap files in this directory")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	chaosFile := fs.String("chaos", "", "JSON fault schedule injected into chaos-aware experiments")
	auditFlag := fs.Bool("audit", false, "print the conservation-audit coverage summary after each artifact")

	switch cmd {
	case "list":
		for _, info := range svrlab.Experiments() {
			fmt.Printf("%-12s %-18s %s\n", info.ID, info.Artifact, info.Title)
		}
	case "run":
		if len(os.Args) < 3 {
			fmt.Fprintln(os.Stderr, "svrlab run <id> [flags]")
			os.Exit(2)
		}
		id := os.Args[2]
		if err := fs.Parse(os.Args[3:]); err != nil {
			os.Exit(2)
		}
		opts := buildOpts(*seed, *repeats, *platformName, *users, *workers)
		if *metrics || *auditFlag {
			opts.Metrics = svrlab.NewMetricsRegistry()
		}
		loadChaos(&opts, *chaosFile)
		setupSink(&opts, *traceOut, *pcapDir)
		stopProfiles := startProfiles(*cpuProfile, *memProfile)
		res, err := svrlab.Run(id, opts)
		stopProfiles()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		emit(res, *format)
		if *metrics {
			emitMetrics(opts.Metrics)
		}
		emitAudit(*auditFlag, opts.Metrics)
		exportTrace(opts.Trace, *traceOut, *traceFormat)
	case "all":
		if err := fs.Parse(os.Args[2:]); err != nil {
			os.Exit(2)
		}
		opts := buildOpts(*seed, *repeats, *platformName, *users, *workers)
		loadChaos(&opts, *chaosFile)
		// One collector across all experiments: cell labels are prefixed by
		// experiment id, so the combined trace stays unambiguous.
		setupSink(&opts, *traceOut, *pcapDir)
		stopProfiles := startProfiles(*cpuProfile, *memProfile)
		for _, info := range svrlab.Experiments() {
			fmt.Printf("==== %s (%s) ====\n", info.ID, info.Artifact)
			// A fresh registry per experiment keeps the tables comparable.
			if *metrics || *auditFlag {
				opts.Metrics = svrlab.NewMetricsRegistry()
			}
			res, err := svrlab.Run(info.ID, opts)
			if err != nil {
				stopProfiles()
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			emit(res, *format)
			if *metrics {
				emitMetrics(opts.Metrics)
			}
			emitAudit(*auditFlag, opts.Metrics)
			fmt.Println()
		}
		stopProfiles()
		exportTrace(opts.Trace, *traceOut, *traceFormat)
	default:
		usage()
		os.Exit(2)
	}
}

// emit prints the artifact as human-readable text or machine-readable JSON
// (the structured result types marshal directly, for downstream plotting).
func emit(res svrlab.Result, format string) {
	switch format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		fmt.Print(res.Render())
	}
}

// startProfiles begins CPU profiling (when requested) and returns a stop
// function that finalizes the CPU profile and writes the heap profile. The
// stop function is safe to call when neither flag was given.
func startProfiles(cpuPath, memPath string) func() {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	return func() {
		if cpuPath != "" {
			pprof.StopCPUProfile()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f.Close()
		}
	}
}

// setupSink enables trace collection and pcap saving on the options when
// the -trace / -pcap flags were given (creating the pcap directory).
func setupSink(opts *svrlab.Options, traceOut, pcapDir string) {
	if traceOut != "" {
		opts.Trace = svrlab.NewTraceCollector()
	}
	if pcapDir != "" {
		if err := os.MkdirAll(pcapDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opts.PcapDir = pcapDir
	}
}

// exportTrace writes the collected flight-recorder trace when -trace was
// given.
func exportTrace(c *svrlab.TraceCollector, path, format string) {
	if c == nil || path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := c.Export(f, format); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// loadChaos parses the -chaos fault schedule file into the options.
func loadChaos(opts *svrlab.Options, path string) {
	if path == "" {
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	spec, err := svrlab.ParseChaosSpec(b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-chaos %s: %v\n", path, err)
		os.Exit(1)
	}
	opts.Chaos = spec
}

// emitAudit prints the conservation-audit coverage summary when -audit was
// given. The auditor itself always runs (and panics on violation); these
// counters only report how much it covered.
func emitAudit(audit bool, reg *svrlab.MetricsRegistry) {
	if !audit {
		return
	}
	s := reg.Snapshot()
	fmt.Printf("\n-- audit -- %d labs conserved: %d links, %d conns (%d paired) checked\n",
		s.Counter("audit.labs"), s.Counter("audit.links"),
		s.Counter("audit.conns"), s.Counter("audit.pairs"))
}

// emitMetrics prints the sorted metrics table when -metrics was given.
func emitMetrics(reg *svrlab.MetricsRegistry) {
	if reg == nil {
		return
	}
	fmt.Println("\n-- metrics --")
	fmt.Print(reg.Snapshot().String())
}

func buildOpts(seed int64, repeats int, platformName, users string, workers int) svrlab.Options {
	opts := svrlab.Options{Seed: seed, Repeats: repeats, Workers: workers}
	if platformName != "" {
		for _, p := range svrlab.Platforms() {
			if strings.EqualFold(string(p), platformName) {
				opts.Platform = p
			}
		}
		if opts.Platform == "" {
			fmt.Fprintf(os.Stderr, "unknown platform %q; options: %v\n", platformName, svrlab.Platforms())
			os.Exit(2)
		}
	}
	if users != "" {
		for _, part := range strings.Split(users, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "bad user count %q\n", part)
				os.Exit(2)
			}
			opts.Counts = append(opts.Counts, n)
		}
	}
	return opts
}

func usage() {
	fmt.Fprintln(os.Stderr, `svrlab — social VR measurement lab (IMC'22 reproduction)

usage:
  svrlab list
  svrlab run <experiment-id> [-seed N] [-repeats N] [-platform P] [-users a,b,c] [-workers N]
             [-format text|json] [-metrics] [-trace F] [-trace-format chrome|text] [-pcap DIR]
             [-cpuprofile F] [-memprofile F] [-chaos F] [-audit]
  svrlab all [flags]`)
}
