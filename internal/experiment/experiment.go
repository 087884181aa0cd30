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
	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/obs"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/platform"
	"github.com/svrlab/svrlab/internal/simtime"
	"github.com/svrlab/svrlab/internal/trace"
	"github.com/svrlab/svrlab/internal/world"
)

// Lab is one fresh simulation universe.
type Lab struct {
	Sched *simtime.Scheduler
	Dep   *platform.Deployment
	Seed  int64

	probeOctets map[string]int
}

// Metrics returns the lab's metrics registry (never nil). When an
// experiment was handed a shared registry, this is that registry; sweep
// cells of one experiment then all feed the same one — safe because every
// registry operation commutes (see package obs).
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
func NewLab(seed int64) *Lab {
	return NewLabObserved(seed, nil)
}

// NewLabObserved is NewLab with an externally owned metrics registry
// (nil gets a fresh private one).
func NewLabObserved(seed int64, m *obs.Registry) *Lab {
	s := simtime.NewScheduler()
	return &Lab{Sched: s, Dep: platform.NewDeploymentObserved(s, seed, m), Seed: seed}
}

// NewLabTraced is NewLabObserved with a flight recorder attached: every
// layer of the stack records packet spans, TCP/TLS/RTCP events, and action
// stamps into tr. A nil tr keeps tracing disabled at zero cost.
func NewLabTraced(seed int64, m *obs.Registry, tr *trace.Tracer) *Lab {
	l := NewLabObserved(seed, m)
	l.Dep.Net.Tracer = tr
	return l
}

// Trace returns the lab's flight recorder (nil when tracing is disabled).
func (l *Lab) Trace() *trace.Tracer { return l.Dep.Net.Tracer }

// MustConserve is the lab's teardown. It folds the fabric's packet ledger
// into the metrics registry (netsim.Network.FlushMetrics), then runs the
// end-of-run conservation auditor (package audit) over the fabric and
// panics with the full report if any invariant fails. Every experiment
// calls it once its cell finishes driving the scheduler, so the auditor
// runs automatically in every experiment test. The auditor only reads
// state the run already produced — never the scheduler, RNG, or a counter
// the artifact renders — so artifacts stay byte-identical whether or not
// anyone looks at the report. Coverage is tallied into the registry for
// the CLI -audit summary.
func (l *Lab) MustConserve() {
	l.Dep.Net.FlushMetrics()
	rep := audit.Run(l.Dep.Net)
	if !rep.OK() {
		panic("experiment: conservation audit failed (seed " +
			fmt.Sprint(l.Seed) + ")\n" + rep.String())
	}
	m := l.Metrics()
	m.Counter("audit.labs").Inc()
	m.Counter("audit.links").Add(int64(rep.Links))
	m.Counter("audit.conns").Add(int64(rep.Conns))
	m.Counter("audit.pairs").Add(int64(rep.Pairs))
}

// Sink collects per-cell observability artifacts of an experiment sweep:
// flight-recorder traces (one Tracer per cell, labeled deterministically so
// collector exports are byte-identical at any worker count) and, when
// PcapDir is set, a cell's capture tap streamed to a Wireshark-openable
// pcap file. A nil *Sink disables both at zero cost.
type Sink struct {
	// Traces, when non-nil, receives one tracer per sweep cell.
	Traces *trace.Collector
	// PcapDir, when non-empty, is the directory capture taps are saved to
	// as "<label>.pcap" (with '/' in labels flattened to '_').
	PcapDir string
}

// Tracer returns the cell tracer for a label (nil when tracing is off).
func (s *Sink) Tracer(label string) *trace.Tracer {
	if s == nil || s.Traces == nil {
		return nil
	}
	return s.Traces.Cell(label)
}

// Pcap streams the packets crossing h's access point to a pcap file in
// PcapDir, from now until the returned func is called; the cell calls it
// where its run ends. It installs nothing, and the func does nothing, when
// the sink or PcapDir is unset. Cells drop the func's error: a pcap is a
// side artifact, and a failed write changes no measured result.
func (s *Sink) Pcap(label string, h *netsim.Host) (end func() error) {
	if s == nil || s.PcapDir == "" {
		return func() error { return nil }
	}
	name := strings.ReplaceAll(label, "/", "_") + ".pcap"
	f, err := os.Create(filepath.Join(s.PcapDir, name))
	if err != nil {
		return func() error { return err }
	}
	tap := capture.AttachPcap(h, f)
	return func() error {
		err := tap.Close()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
}

// SpawnOpts controls client creation.
type SpawnOpts struct {
	Site     string        // default: campus
	Voice    bool          // default false: users join mutely, as the paper does
	Wander   bool          // walk around
	Room     string        // default "event-1"
	LaunchAt time.Duration // default 0
	JoinAt   time.Duration // default 1s
	// JoinStagger delays each subsequent user's join (Figure 6's 50 s).
	JoinStagger time.Duration
}

// Spawn creates n clients of a platform and schedules launch/join.
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
		l.Sched.At(o.LaunchAt, c.Launch)
		join := o.JoinAt + time.Duration(i)*o.JoinStagger
		l.Sched.At(join, func() { c.JoinEvent(o.Room) })
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

// dataOnly matches the data channel: UDP traffic, plus (for web platforms)
// the HTTPS connection itself — the paper's Hubs data channel spans both.
func (l *Lab) dataOnly(p *platform.Profile, ctrlAddr packet.Addr) func(packet.Flow) bool {
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
