// Package svrlab is a measurement laboratory for social virtual reality
// platforms, reproducing "Are We Ready for Metaverse? A Measurement Study of
// Social Virtual Reality Platforms" (IMC 2022) as an executable system.
//
// The lab contains deterministic models of the five platforms the paper
// measures (AltspaceVR, Horizon Worlds, Mozilla Hubs, Rec Room, VRChat)
// running as real clients and servers over a discrete-event network fabric,
// plus the complete measurement toolkit: packet capture and flow analysis,
// ping/traceroute/anycast probing, an OVR-Metrics-style device sampler, a
// tc-netem-style disruptor, and a frame-accurate end-to-end latency rig.
//
// Every table and figure in the paper's evaluation has a corresponding
// experiment; run them via Run or the svrlab CLI:
//
//	res, err := svrlab.Run("table3", svrlab.Options{Seed: 42})
//	fmt.Println(res.Render())
package svrlab

import (
	"fmt"
	"sort"

	"github.com/svrlab/svrlab/internal/chaos"
	"github.com/svrlab/svrlab/internal/experiment"
	"github.com/svrlab/svrlab/internal/obs"
	"github.com/svrlab/svrlab/internal/platform"
	"github.com/svrlab/svrlab/internal/trace"
)

// Platform identifies one of the five modeled social VR platforms.
type Platform = platform.Name

// The five platforms under study (§3.1 of the paper).
const (
	AltspaceVR Platform = platform.AltspaceVR
	Worlds     Platform = platform.Worlds
	Hubs       Platform = platform.Hubs
	RecRoom    Platform = platform.RecRoom
	VRChat     Platform = platform.VRChat
)

// Platforms lists all five in the paper's canonical order.
func Platforms() []Platform {
	var out []Platform
	for _, p := range platform.All() {
		out = append(out, p.Name)
	}
	return out
}

// Lab exposes the underlying simulation universe for custom experiments:
// build deployments, spawn clients, attach captures.
type Lab = experiment.Lab

// NewLab creates a fresh deterministic simulation universe.
func NewLab(seed int64) *Lab { return experiment.NewLab(seed) }

// MetricsRegistry is the per-lab observability registry: counters, max
// gauges, and bounded duration histograms recorded by every layer of the
// stack (fabric drops and queueing, TCP retransmission behaviour, secure
// records, voice streams, device sampling, sweep cells). A lab's layer
// counts arrive when its teardown, Lab.MustConserve, folds them in. There
// is no global registry: pass one through Options.Metrics to aggregate an
// experiment, or read a single lab's via Lab.Metrics().
type MetricsRegistry = obs.Registry

// MetricsSnapshot is an immutable, name-sorted view of a MetricsRegistry.
type MetricsSnapshot = obs.Snapshot

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// TraceCollector gathers per-cell flight-recorder traces: packet lifecycle
// spans, TCP/TLS state transitions, RTCP reports, netem schedule actions,
// and experiment phase markers, all stamped with virtual time. Export with
// Export(w, "chrome") (load the JSON in Perfetto / chrome://tracing) or
// Export(w, "text"). Cell labels derive from the sweep structure, never
// the worker, so exports are byte-identical at any Workers setting.
type TraceCollector = trace.Collector

// NewTraceCollector creates an empty trace collector.
func NewTraceCollector() *TraceCollector { return trace.NewCollector() }

// Client is a platform application instance bound to a simulated headset.
type Client = platform.Client

// Result is a rendered experiment artifact.
type Result interface {
	Render() string
}

// Options parameterizes an experiment run: the seed, sweep overrides, and
// the observers (metrics, trace, pcap directory, fault schedule) every cell
// of the run shares. See experiment.Env for each field.
type Options = experiment.Env

// ChaosSpec is a declarative, JSON-loadable fault schedule. Parse one from
// bytes with ParseChaosSpec; see the -chaos CLI flag.
type ChaosSpec = chaos.Spec

// ParseChaosSpec parses and validates a JSON fault schedule.
func ParseChaosSpec(b []byte) (*ChaosSpec, error) { return chaos.ParseSpec(b) }

// Info describes a runnable experiment.
type Info struct {
	ID       string
	Artifact string // which paper table/figure it regenerates
	Title    string
}

type runner struct {
	Info
	run func(Options) Result
}

var registry = []runner{
	{Info{"table1", "Table 1", "Platform feature comparison"},
		func(Options) Result { return experiment.Table1() }},
	{Info{"table2", "Table 2 + §4.2", "Network protocols and infrastructure"},
		func(o Options) Result { return experiment.Table2(o) }},
	{Info{"fig2", "Figure 2", "Control vs data channel timeline"},
		func(o Options) Result { return experiment.Fig2(o) }},
	{Info{"table3", "Table 3", "Two-user throughput and avatar share"},
		func(o Options) Result { return experiment.Table3(o) }},
	{Info{"fig3", "Figure 3", "Direct-forwarding evidence (U1 up ≈ U2 down)"},
		func(o Options) Result { return experiment.Fig3(o) }},
	{Info{"fig6", "Figure 6", "Controlled join scalability + viewport turn"},
		func(o Options) Result { return experiment.Fig6(o, experiment.Fig6FacingJoiners) }},
	{Info{"fig6b", "Figure 6(f)", "AltspaceVR corner-facing viewport variant"},
		func(o Options) Result { return experiment.Fig6(o, experiment.Fig6FacingCorner) }},
	{Info{"fig6all", "Figure 6 (a-f)", "All join-scalability panels, fanned out"},
		func(o Options) Result { return experiment.Fig6Panels(o) }},
	{Info{"fig7", "Figures 7+8", "Public-event scaling: throughput, FPS, CPU/GPU/memory"},
		func(o Options) Result { return experiment.Scaling(o) }},
	{Info{"fig9", "Figure 9", "Large-scale private-Hubs event (≤28 users)"},
		func(o Options) Result { return experiment.Fig9(o) }},
	{Info{"viewport", "§6.1", "AltspaceVR viewport-width detection"},
		func(o Options) Result { return experiment.Viewport(o) }},
	{Info{"table4", "Table 4", "End-to-end latency breakdown (incl. private Hubs)"},
		func(o Options) Result { return experiment.Table4(o) }},
	{Info{"fig11", "Figure 11", "Latency scalability (2-7 users)"},
		func(o Options) Result { return experiment.Fig11(o) }},
	{Info{"fig12", "Figure 12", "Worlds downlink disruption during Arena Clash"},
		func(o Options) Result { return experiment.Fig12(o) }},
	{Info{"fig13", "Figure 13 (top)", "Worlds uplink bandwidth disruption"},
		func(o Options) Result { return experiment.Fig13(o, experiment.Fig13Bandwidth) }},
	{Info{"fig13tcp", "Figure 13 (bottom)", "TCP-only delays and blackhole vs UDP"},
		func(o Options) Result { return experiment.Fig13(o, experiment.Fig13TCPOnly) }},
	{Info{"disrupt-lat", "§8.2", "Latency and loss tolerance in shooting games"},
		func(o Options) Result { return experiment.DisruptLatencyLoss(o) }},
	{Info{"resilience", "§4 infra + Table 2", "Server-crash recovery: failover, avatar freeze"},
		func(o Options) Result { return experiment.Resilience(o) }},
	{Info{"remote", "§6.3 ablation", "Local forwarding vs remote rendering"},
		func(o Options) Result { return experiment.RemoteAblation(o) }},
	{Info{"p2p", "§6.2 ablation", "Server forwarding vs P2P full mesh"},
		func(o Options) Result { return experiment.P2PAblation(o) }},
	{Info{"decimate", "§6.2 ablation", "Update-rate decimation for distant avatars"},
		func(o Options) Result { return experiment.Decimate(o) }},
}

// Experiments lists all runnable experiments sorted by id.
func Experiments() []Info {
	out := make([]Info, 0, len(registry))
	for _, r := range registry {
		out = append(out, r.Info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Run executes one experiment by id. A chaos spec that names a host, link
// or site some cell lacks is an error (*experiment.ChaosError) naming the
// first such cell and the target; any other panic propagates.
func Run(id string, o Options) (res Result, err error) {
	for _, r := range registry {
		if r.ID == id {
			defer func() {
				if v := recover(); v != nil {
					ce, ok := v.(*experiment.ChaosError)
					if !ok {
						panic(v)
					}
					res, err = nil, ce
				}
			}()
			return r.run(o), nil
		}
	}
	return nil, fmt.Errorf("svrlab: unknown experiment %q (see Experiments())", id)
}
