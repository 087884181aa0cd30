package experiment

import (
	"fmt"
	"strings"
	"time"

	"github.com/svrlab/svrlab/internal/capture"
	"github.com/svrlab/svrlab/internal/disrupt"
	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/platform"
	"github.com/svrlab/svrlab/internal/plot"
	"github.com/svrlab/svrlab/internal/stats"
)

// Fig12Result is the Worlds downlink-disruption artifact (paper Figure 12):
// staged downlink caps during the Arena Clash game, with throughput, device
// utilization, and frame-rate series.
type Fig12Result struct {
	Platform   platform.Name
	Stages     []disrupt.AppliedStage
	Up, Down   stats.TimeSeries
	CPU, GPU   stats.TimeSeries
	FPS, Stale stats.TimeSeries
	Total      time.Duration
}

// Fig12 reproduces the §8.1 downlink experiment on Worlds: two users in a
// shooting game, U1's downlink capped at 1/0.7/0.5/0.3/0.2/0.1 Mbps for
// 40 s each, then released.
func Fig12(e Env) *Fig12Result {
	u1, sniff, stages, total := arenaClash(e, "fig12", disrupt.Downlink, disrupt.DownlinkBandwidthStages(), 10*time.Second)
	udp := capture.FilterProto(packet.ProtoUDP)
	res := &Fig12Result{
		Platform: platform.Worlds,
		Stages:   stages,
		Up:       sniff.Series(capture.MatchUp(udp), 0, total, time.Second),
		Down:     sniff.Series(capture.MatchDown(udp), 0, total, time.Second),
		Total:    total,
	}
	res.CPU, res.GPU, res.FPS, res.Stale = monitorSeries(u1, total)
	return res
}

// arenaClash runs the §8.1 lab: two Worlds users play Arena Clash from
// 5 s, U1's dir side is impaired by stages from 20 s, and the run ends tail
// after the last stage. It returns U1, U1's capture, the stages as applied
// and the run's length.
func arenaClash(e Env, label string, dir netsim.Dir, stages []disrupt.Stage, tail time.Duration) (*platform.Client, *capture.Sniffer, []disrupt.AppliedStage, time.Duration) {
	l := e.lab(label, e.Seed)
	defer l.MustConserve()
	cs := l.Spawn(platform.Worlds, 2, SpawnOpts{})
	l.Sched.At(5*time.Second, func() {
		arrangeCircle(cs)
		cs[0].SetGame(true)
		cs[1].SetGame(true)
	})
	sniff := l.Capture(cs[0].Host)
	sc := &disrupt.Schedule{Host: cs[0].Host, Dir: dir, Stages: stages}
	end := sc.Run(l.Sched, 20*time.Second)
	l.Trace().Phase(20*time.Second, "disruption")
	l.Trace().Phase(end, "recovery")
	l.Sched.RunUntil(end + tail)
	return cs[0], sniff, sc.Applied, end + tail
}

// monitorSeries converts monitor samples into aligned time series.
func monitorSeries(c *platform.Client, total time.Duration) (cpu, gpu, fps, stale stats.TimeSeries) {
	n := int(total / time.Second)
	mk := func() stats.TimeSeries {
		return stats.TimeSeries{Start: 0, Step: time.Second, Values: make([]float64, n)}
	}
	cpu, gpu, fps, stale = mk(), mk(), mk(), mk()
	for _, s := range c.Monitor.Samples {
		i := int(s.T / time.Second)
		if i < 0 || i >= n {
			continue
		}
		cpu.Values[i] = s.CPUPct
		gpu.Values[i] = s.GPUPct
		fps.Values[i] = s.FPS
		stale.Values[i] = s.StalePerS
	}
	return
}

// stageWindow returns the [from,to) window of the i-th of stages in a run
// that ends at total (Figs 12 and 13).
func stageWindow(stages []disrupt.AppliedStage, total time.Duration, i int) (from, to time.Duration) {
	from, to = stages[i].At, total
	if i+1 < len(stages) {
		to = stages[i+1].At
	}
	return from, to
}

// stageMean summarizes a series within the i-th of stages (skipping 5 s of
// settling).
func stageMean(ts *stats.TimeSeries, stages []disrupt.AppliedStage, total time.Duration, i int) float64 {
	from, to := stageWindow(stages, total, i)
	return ts.MeanInWindow(from+5*time.Second, to)
}

// stageMarkers labels each stage's start on a Fig 12 or Fig 13 chart.
func stageMarkers(stages []disrupt.AppliedStage) []plot.Marker {
	var markers []plot.Marker
	for _, st := range stages {
		markers = append(markers, plot.Marker{At: st.At, Label: st.Stage.Label})
	}
	return markers
}

// Render prints the Figure 12 artifact: throughput chart plus stage table.
func (r *Fig12Result) Render() string {
	var b strings.Builder
	chart := &plot.Chart{
		Title:  fmt.Sprintf("Figure 12 (%s, Arena Clash): downlink disruption", r.Platform),
		YUnit:  "Mbps",
		YScale: 1e6,
		Series: []plot.Series{
			{Label: "uplink", Symbol: 'u', Data: r.Up},
			{Label: "downlink", Symbol: 'D', Data: r.Down},
		},
		Markers: stageMarkers(r.Stages),
	}
	b.WriteString(chart.Render())
	t := &Table{Header: []string{"Stage", "Down (Mbps)", "Up (Mbps)", "CPU %", "GPU %", "FPS", "Stale/s"}}
	for i, st := range r.Stages {
		mean := func(ts *stats.TimeSeries) float64 { return stageMean(ts, r.Stages, r.Total, i) }
		t.Add(st.Stage.Label,
			mbps(mean(&r.Down)), mbps(mean(&r.Up)),
			fmt.Sprintf("%.1f", mean(&r.CPU)),
			fmt.Sprintf("%.1f", mean(&r.GPU)),
			fmt.Sprintf("%.1f", mean(&r.FPS)),
			fmt.Sprintf("%.1f", mean(&r.Stale)))
	}
	b.WriteString(t.String())
	return b.String()
}
