// Package experiment contains one scenario builder per table and figure in
// the paper's evaluation, plus the ablation studies DESIGN.md calls out.
// Every experiment builds a fresh deployment, drives platform clients over
// the fabric, measures through captures/probes/device samplers — never by
// reading profile constants back — and renders a text artifact shaped like
// the paper's.
package experiment

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/svrlab/svrlab/internal/audit"
	"github.com/svrlab/svrlab/internal/capture"
	"github.com/svrlab/svrlab/internal/chaos"
	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/obs"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/platform"
	"github.com/svrlab/svrlab/internal/runner"
	"github.com/svrlab/svrlab/internal/simtime"
	"github.com/svrlab/svrlab/internal/stats"
	"github.com/svrlab/svrlab/internal/trace"
	"github.com/svrlab/svrlab/internal/world"
)

// Env is one experiment run's environment: the seed and sweep overrides
// every experiment reads its paper defaults against, and the observers
// every cell of the run shares. svrlab.Options is an alias of it.
type Env struct {
	// Seed drives all randomness; equal seeds give bit-identical runs.
	Seed int64
	// Repeats overrides the per-experiment repetition count (0 = default).
	Repeats int
	// Platform selects the platform for single-platform experiments
	// (empty = the experiment's paper default).
	Platform platform.Name
	// Counts overrides user-count sweeps where applicable.
	Counts []int
	// Workers bounds the worker pool that fans independent simulation cells
	// out across CPUs (0 = GOMAXPROCS). Results are bit-identical at any
	// worker count: every cell owns a private Lab with a serially-derived
	// seed, and outputs are collected by index.
	Workers int
	// Metrics, when non-nil, aggregates every cell's counters and
	// histograms into one registry. All registry operations commute, so
	// the stable part of a snapshot (Snapshot().Stable()) is identical at
	// any worker count. Nil means each lab keeps a private registry.
	Metrics *obs.Registry
	// Trace, when non-nil, records a flight-recorder trace for every
	// simulation cell, under a label built from the cell's sweep
	// coordinates. Nil keeps the per-packet hot path allocation- and
	// branch-free.
	Trace *trace.Collector
	// PcapDir, when non-empty, saves the packets of each cell's first
	// captured host as a libpcap file under this directory.
	PcapDir string
	// Chaos, when non-empty, injects a declarative fault schedule (host
	// crashes, link cuts, site partitions) into every cell, timed from the
	// cell's start; resilience runs it in place of its built-in crash.
	// Faults are driven entirely by the deterministic scheduler — an empty
	// or nil spec is byte-identical to no chaos at all.
	Chaos *chaos.Spec
}

// platformOr returns the run's platform, or def when the run names none.
func (e Env) platformOr(def platform.Name) platform.Name {
	if e.Platform != "" {
		return e.Platform
	}
	return def
}

// repeatsOr returns the run's repetition count, or def when it sets none.
func (e Env) repeatsOr(def int) int {
	if e.Repeats > 0 {
		return e.Repeats
	}
	return def
}

// countsOr returns the run's user counts, or def when it sets none.
func (e Env) countsOr(def []int) []int {
	if len(e.Counts) > 0 {
		return e.Counts
	}
	return def
}

// cells runs fn(0) … fn(n-1), the run's n cells, on up to e.Workers
// goroutines (runner.Map) and returns their results by index. Each cell
// counts once in e.Metrics' "runner.cells" and observes its wall time in
// the "runner.cell_wall" histogram, a volatile series that Snapshot.Stable
// leaves out, so a run's stable metrics are the same at any worker count.
func cells[T any](e Env, n int, fn func(i int) T) []T {
	return runner.Map(e.Workers, n, func(i int) T {
		start := time.Now()
		out := fn(i)
		e.Metrics.Inc("runner.cells")
		e.Metrics.ObserveWall("runner.cell_wall", time.Since(start))
		return out
	})
}

// perPoint runs fn(p, rep) for every point p and rep in [0, repeats), as
// the cells of one fan-out in that order, and returns each point's results
// by repeat.
func perPoint[P, T any](e Env, points []P, repeats int, fn func(p P, rep int) T) [][]T {
	out := cells(e, len(points)*repeats, func(i int) T { return fn(points[i/repeats], i%repeats) })
	reps := make([][]T, len(points))
	for i := range reps {
		reps[i] = out[i*repeats : (i+1)*repeats]
	}
	return reps
}

// summary summarizes f of each of one point's repeats.
func summary[T any](reps []T, f func(T) float64) stats.Summary {
	vals := make([]float64, len(reps))
	for i, r := range reps {
		vals[i] = f(r)
	}
	return stats.Summarize(vals)
}

// ChaosError reports a chaos spec that does not bind in a cell: it names a
// host, link or site the cell did not build. The cell panics with it at
// t=0, and svrlab.Run returns it as the run's error.
type ChaosError struct {
	Cell string // the cell's label
	Err  error  // the binding error, which names the target
}

func (e *ChaosError) Error() string {
	return "experiment: chaos spec in cell " + e.Cell + ": " + e.Err.Error()
}

// lab builds one cell's Lab. The lab observes into e.Metrics, records into
// e.Trace's cell of that label, and runs e.Chaos from t=0: one callback at
// t=0 binds the spec against the fabric, so it can name the hosts the cell
// built, the clients among them, and panics with a *ChaosError if a target
// is missing. With none of them set it is NewLab: no tracer, no pcap, no
// event posted. Labels must be unique across every experiment, because one
// collector may trace them all.
func (e Env) lab(label string, seed int64) *Lab {
	s := simtime.NewScheduler()
	l := &Lab{Sched: s, Dep: platform.NewDeployment(s, seed, e.Metrics), Seed: seed,
		label: label, pcapDir: e.PcapDir}
	l.Dep.Net.Tracer = e.Trace.Cell(label)
	if spec := e.Chaos; !spec.Empty() {
		s.At(0, func() {
			sc, err := spec.Bind(l.Dep.Net)
			if err != nil {
				panic(&ChaosError{Cell: label, Err: err})
			}
			sc.Run(s, 0)
		})
	}
	return l
}

// Lab is one fresh simulation universe.
type Lab struct {
	Sched *simtime.Scheduler
	Dep   *platform.Deployment
	Seed  int64

	label   string // the cell's trace label and pcap name
	pcapDir string // Env.PcapDir until the cell's first Capture
	endPcap func() // ends the cell's pcap, if Capture opened one

	probeOctets map[string]int
}

// Metrics returns the lab's metrics registry (never nil). When the run
// shares a registry (Env.Metrics), this is that registry; sweep cells of
// one experiment then all feed the same one — safe because every registry
// operation commutes (see package obs). The lab's fabric, transport, TLS,
// voice and headset counts arrive at MustConserve.
func (l *Lab) Metrics() *obs.Registry { return l.Dep.Metrics() }

// probeHost allocates a measurement host at a site with a unique address.
func (l *Lab) probeHost(site string) *netsim.Host {
	if l.probeOctets == nil {
		l.probeOctets = make(map[string]int)
	}
	l.probeOctets[site]++
	octet := 99 + l.probeOctets[site]
	if octet > 250 {
		panic("experiment: probe host addresses exhausted at " + site)
	}
	return l.Dep.AddVantage(fmt.Sprintf("probe-%s-%d", site, octet), site, octet)
}

// NewLab builds a deployment with the given seed and a private metrics
// registry.
func NewLab(seed int64) *Lab { return Env{}.lab("", seed) }

// Trace returns the lab's flight recorder (nil when tracing is disabled).
func (l *Lab) Trace() *trace.Tracer { return l.Dep.Net.Tracer }

// Capture taps h and returns its sniffer. The first host a cell captures is
// its U1: with Env.PcapDir set, that host's packets also stream to
// "<label>.pcap" there ('/' in the label flattened to '_') until the cell's
// MustConserve. A pcap is a side artifact, and a failed write changes no
// measured result, so its errors are dropped.
func (l *Lab) Capture(h *netsim.Host) *capture.Sniffer {
	s := capture.Attach(h)
	if l.pcapDir != "" {
		name := strings.ReplaceAll(l.label, "/", "_") + ".pcap"
		if f, err := os.Create(filepath.Join(l.pcapDir, name)); err == nil {
			tap := capture.AttachPcap(h, f)
			l.endPcap = func() { _ = tap.Close(); _ = f.Close() }
		}
		l.pcapDir = ""
	}
	return s
}

// MustConserve is the lab's teardown. It ends the cell's pcap, folds the
// fabric's packet ledger and every endpoint's counts into the metrics
// registry (netsim.Network.FlushMetrics), then runs the end-of-run
// conservation auditor (package audit) over the fabric and panics with the
// full report if any invariant fails. Every experiment calls it once its
// cell finishes driving the scheduler, so the auditor runs automatically in
// every experiment test. The auditor only reads state the run already
// produced — never the scheduler, RNG, or a counter the artifact renders —
// so artifacts stay byte-identical whether or not anyone looks at the
// report. Coverage is tallied into the registry for the CLI -audit summary.
func (l *Lab) MustConserve() {
	if l.endPcap != nil {
		l.endPcap()
	}
	l.Dep.Net.FlushMetrics()
	rep := audit.Run(l.Dep.Net)
	if !rep.OK() {
		panic("experiment: conservation audit failed (seed " +
			fmt.Sprint(l.Seed) + ")\n" + rep.String())
	}
	m := l.Metrics()
	m.Inc("audit.labs")
	m.Add("audit.links", int64(rep.Links))
	m.Add("audit.conns", int64(rep.Conns))
	m.Add("audit.pairs", int64(rep.Pairs))
}

// SpawnOpts controls client creation.
type SpawnOpts struct {
	Site   string        // default: campus
	Voice  bool          // default false: users join mutely, as the paper does
	Wander bool          // walk around
	Room   string        // default "event-1"
	JoinAt time.Duration // default 1s
}

// Spawn creates n clients of a platform, launched at t=0, and schedules
// their joins.
func (l *Lab) Spawn(name platform.Name, n int, o SpawnOpts) []*platform.Client {
	if o.Site == "" {
		o.Site = platform.SiteCampus
	}
	if o.Room == "" {
		o.Room = "event-1"
	}
	if o.JoinAt == 0 {
		o.JoinAt = time.Second
	}
	out := make([]*platform.Client, n)
	for i := 0; i < n; i++ {
		c := platform.NewClient(l.Dep, name, fmt.Sprintf("u%d", i+1), o.Site, 10+i)
		c.Muted = !o.Voice
		c.Wander = o.Wander
		out[i] = c
		l.Sched.At(0, c.Launch)
		l.Sched.At(o.JoinAt, func() { c.JoinEvent(o.Room) })
	}
	return out
}

// notAsset filters out CDN download traffic (the paper omits it, §5.2).
func (l *Lab) notAsset(p *platform.Profile) func(packet.Flow) bool {
	asset := l.Dep.AssetEndpoint(p).Addr
	return func(f packet.Flow) bool {
		return f.Src.Addr != asset && f.Dst.Addr != asset
	}
}

// dataOnly matches c's data channel: UDP traffic, plus (for web platforms)
// the HTTPS connection to c's control server itself — the paper's Hubs data
// channel spans both.
func (l *Lab) dataOnly(c *platform.Client) func(packet.Flow) bool {
	p := c.Profile
	ctrlAddr := l.Dep.ControlEndpoint(p, c.Host.Site).Addr
	na := l.notAsset(p)
	return func(f packet.Flow) bool {
		if !na(f) {
			return false
		}
		if f.Proto == packet.ProtoUDP {
			return true
		}
		if p.WebData {
			return f.Src.Addr == ctrlAddr || f.Dst.Addr == ctrlAddr
		}
		return false
	}
}

// Text-rendering helpers shared by all artifacts.

// Table renders rows with aligned columns.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len([]rune(h))
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := widths[i] - len([]rune(c)); pad > 0; pad-- {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// kbps formats bits/s as "X.X" kbit/s.
func kbps(bps float64) string { return fmt.Sprintf("%.1f", bps/1000) }

// mbps formats bits/s as Mbit/s.
func mbps(bps float64) string { return fmt.Sprintf("%.2f", bps/1e6) }

// ms formats a duration in milliseconds with one decimal.
func ms(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond)) }

// msf formats a float of milliseconds.
func msf(v float64) string { return fmt.Sprintf("%.1f", v) }

// arrangeCircle places clients around the room center so everyone sees
// everyone (public-event style).
func arrangeCircle(cs []*platform.Client) {
	center := world.Vec2{X: 10, Y: 10}
	n := len(cs)
	for i, c := range cs {
		ang := float64(i) / float64(n) * 360
		pos := center.Add(world.Vec2{X: 3 * cosDeg(ang), Y: 3 * sinDeg(ang)})
		yaw := world.NormalizeDeg(ang + 180) // face the center
		c.StandAt(pos, yaw)
	}
}

func cosDeg(d float64) float64 { return math.Cos(d * math.Pi / 180) }
func sinDeg(d float64) float64 { return math.Sin(d * math.Pi / 180) }
