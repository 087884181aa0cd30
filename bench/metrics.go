package main

import (
	"runtime"
	"slices"
	"strings"
)

// metricDef is one end-to-end metric: what a user regenerating the
// artifacts pays. Bound is the share of the baseline median by which it may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd lists the end-to-end metrics in report order. BENCHMARK.json
// repeats the names, units and bounds; bench/README.md explains them.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_gb", "GB", "lower", 0.02},
	{"mallocs_m", "millions", "lower", 0.02},
	{"peak_heap_mb", "MB", "lower", 0.25},
	{"pkts_per_s", "1/s", "higher", 0.25},
}

const packetsSent = "netsim.packets.sent"

// endToEndSamples returns each end-to-end metric's samples, one per
// untraced run (setup_s also takes every set-up-only run). Timings are in
// reference-host seconds (hostprobe.go).
func endToEndSamples(s *runSet) map[string][]float64 {
	m := map[string][]float64{"setup_s": s.setup}
	for _, r := range s.runs {
		wall := r.WallS * refProbeS / r.ProbeS
		m["wall_s"] = append(m["wall_s"], wall)
		m["cpu_s"] = append(m["cpu_s"], r.CPUS*refProbeS/r.ProbeS)
		m["alloc_gb"] = append(m["alloc_gb"], float64(r.AllocBytes)/1e9)
		m["mallocs_m"] = append(m["mallocs_m"], float64(r.Mallocs)/1e6)
		m["peak_heap_mb"] = append(m["peak_heap_mb"], float64(r.PeakHeap)/1e6)
		m["pkts_per_s"] = append(m["pkts_per_s"], float64(r.Counters[packetsSent])/wall)
	}
	return m
}

// layerDef is one per-layer metric. Per-layer metrics have no bound: they
// explain a change in the end-to-end ones.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// Layers whose CPU and allocation the traced run attributes. "runtime" holds
// samples with no svrlab frame; "other" holds the internal packages that
// drew next to no samples in any workload's first traced runs (device, rtpx,
// disrupt, probe, trace, audit, experiment, world, stats, geo, runner,
// render, plot, chaos): together 0.2-1% of each workload's CPU. A row of
// its own for each would read 0 or a few 10 ms samples.
var (
	cpuLayers = []string{"simtime", "netsim", "transport", "secure", "packet", "platform", "avatar",
		"capture", "obs", "other", "runtime"}
	allocLayers = []string{"transport", "secure", "packet", "capture", "platform", "avatar", "netsim",
		"simtime"}
)

// perLayerDefs lists the per-layer metrics in report order. Costs read
// better lower; counts of work the artifacts need read better higher, since
// doing less of it means something went missing.
func perLayerDefs() []layerDef {
	var defs []layerDef
	for _, l := range cpuLayers {
		defs = append(defs, layerDef{l + ".cpu_s", "s", "lower"})
	}
	for _, l := range allocLayers {
		defs = append(defs, layerDef{l + ".alloc_mb", "MB", "lower"})
	}
	return append(defs,
		layerDef{"netsim.packets_sent", "count", "higher"},
		layerDef{"netsim.delivered_ratio", "ratio", "higher"},
		layerDef{"netsim.drops", "count", "lower"},
		layerDef{"transport.retransmits", "count", "lower"},
		layerDef{"transport.rto_backoffs", "count", "lower"},
		layerDef{"secure.records", "count", "higher"},
		layerDef{"secure.app_mb", "MB", "higher"},
		layerDef{"device.samples", "count", "higher"},
		layerDef{"runner.cells", "count", "higher"},
		layerDef{"audit.labs", "count", "higher"},
		layerDef{"host.speed", "ratio", "higher"},
		layerDef{"runner.parallel_eff", "ratio", "higher"},
		layerDef{"runtime.gc_cpu_s", "s", "lower"},
		layerDef{"runtime.gc_cycles", "count", "lower"},
		layerDef{"profile.cpu_s", "s", "lower"},
		layerDef{"profile.coverage", "ratio", "higher"},
		layerDef{"profile.overhead", "ratio", "lower"},
		layerDef{"cell.lab_s", "s", "lower"},
		layerDef{"cell.spawn_s", "s", "lower"},
		layerDef{"cell.run_s", "s", "lower"},
		layerDef{"cell.events", "count", "lower"},
		layerDef{"cell.ns_per_event", "ns", "lower"},
		layerDef{"cell.analyse_s", "s", "lower"},
		layerDef{"cell.records", "count", "higher"},
		layerDef{"cell.audit_s", "s", "lower"},
	)
}

// perLayer computes the per-layer metrics of a set with a traced run and a
// cell run: layer shares and registry counts from the traced run, cell
// timings from the cell run, and run-level ratios from the untraced medians.
// Its timings are host seconds as measured, not scaled by the host probe;
// host.speed says how fast the host ran against the reference. A layer's
// cpu_s is its share of the profile's samples times the traced run's
// measured cpu_s, so the layers add up to that cpu_s; profile.coverage says
// how much of it the samples saw.
func perLayer(s *runSet) map[string]float64 {
	t, c := s.traced, s.cell
	m := make(map[string]float64)
	var profiled float64
	for _, v := range t.LayerCPU {
		profiled += v
	}
	for l, v := range t.LayerCPU {
		if !slices.Contains(cpuLayers, l) {
			l = "other"
		}
		m[l+".cpu_s"] += ratio(v, profiled) * t.CPUS
	}
	for _, l := range allocLayers {
		m[l+".alloc_mb"] = t.LayerAlloc[l] / 1e6
	}

	n := t.Counters
	var drops int64
	for name, v := range n {
		if strings.HasPrefix(name, "netsim.drop.") {
			drops += v
		}
	}
	sent := float64(n[packetsSent])
	m["netsim.packets_sent"] = sent
	m["netsim.delivered_ratio"] = ratio(float64(n["netsim.packets.delivered"]), sent)
	m["netsim.drops"] = float64(drops)
	m["transport.retransmits"] = float64(n["transport.retransmits"])
	m["transport.rto_backoffs"] = float64(n["transport.rto_backoffs"])
	m["secure.records"] = float64(n["secure.records_sent"])
	m["secure.app_mb"] = float64(n["secure.app_bytes_sent"]) / 1e6
	m["device.samples"] = float64(n["device.samples"])
	m["runner.cells"] = float64(n["runner.cells"])
	m["audit.labs"] = float64(n["audit.labs"])

	var wall, cpu, gcCPU, gcCycles, probe, scaledWall []float64
	for _, r := range s.runs {
		wall = append(wall, r.WallS)
		cpu = append(cpu, r.CPUS)
		gcCPU = append(gcCPU, r.GCCPUS)
		gcCycles = append(gcCycles, float64(r.GCCycles))
		probe = append(probe, r.ProbeS)
		scaledWall = append(scaledWall, r.WallS/r.ProbeS)
	}
	m["host.speed"] = ratio(refProbeS, summarize(probe).Median)
	m["runner.parallel_eff"] = ratio(summarize(cpu).Median, summarize(wall).Median*float64(runtime.GOMAXPROCS(0)))
	m["runtime.gc_cpu_s"] = summarize(gcCPU).Median
	m["runtime.gc_cycles"] = summarize(gcCycles).Median
	m["profile.cpu_s"] = t.CPUS
	m["profile.coverage"] = ratio(profiled, t.CPUS)
	// The traced and untraced runs are compared at the same host speed.
	m["profile.overhead"] = ratio(t.WallS/t.ProbeS, summarize(scaledWall).Median) - 1

	m["cell.lab_s"] = c.LabS
	m["cell.spawn_s"] = c.SpawnS
	m["cell.run_s"] = c.RunS
	m["cell.events"] = float64(c.Events)
	m["cell.ns_per_event"] = ratio(c.RunS*1e9, float64(c.Events))
	m["cell.analyse_s"] = c.AnalyseS
	m["cell.records"] = float64(c.Records)
	m["cell.audit_s"] = c.AuditS
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
