package experiment

import (
	"fmt"
	"strings"
	"time"

	"github.com/svrlab/svrlab/internal/capture"
	"github.com/svrlab/svrlab/internal/disrupt"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/platform"
	"github.com/svrlab/svrlab/internal/plot"
	"github.com/svrlab/svrlab/internal/stats"
)

// Fig13Mode selects which half of Figure 13 to run.
type Fig13Mode int

const (
	// Fig13Bandwidth: staged caps on all uplink traffic (top panel).
	Fig13Bandwidth Fig13Mode = iota
	// Fig13TCPOnly: TCP-only uplink delays then 100% TCP loss (bottom).
	Fig13TCPOnly
)

// Fig13Result is the uplink-disruption artifact: UDP uplink/downlink and
// TCP uplink series under the staged impairments.
type Fig13Result struct {
	Mode                  Fig13Mode
	Stages                []disrupt.AppliedStage
	UDPUp, UDPDown, TCPUp stats.TimeSeries
	Total                 time.Duration
	// Frozen/FrozenAt report the app-level UDP session death (TCP-only
	// blackhole stage).
	Frozen   bool
	FrozenAt time.Duration
	// TCPRecovered reports whether TCP traffic reached U1 again in the
	// final clear stage: the control connection survived the disruption.
	TCPRecovered bool
	// UDPGapSeconds counts quiet uplink seconds during TCP-delay stages —
	// the "gaps equal to the introduced delay" finding.
	UDPGapSeconds int
}

// Fig13 reproduces the §8.1 uplink experiments on Worlds in game mode.
func Fig13(e Env, mode Fig13Mode) *Fig13Result {
	label, stages := "fig13/bandwidth", disrupt.UplinkBandwidthStages()
	if mode == Fig13TCPOnly {
		label, stages = "fig13/tcponly", disrupt.TCPDelayStages()
	}
	u1, sniff, applied, total := arenaClash(e, label, disrupt.Uplink, stages, 20*time.Second)
	udp := capture.FilterProto(packet.ProtoUDP)
	tcp := capture.FilterProto(packet.ProtoTCP)
	res := &Fig13Result{
		Mode:     mode,
		Stages:   applied,
		UDPUp:    sniff.Series(capture.MatchUp(udp), 0, total, time.Second),
		UDPDown:  sniff.Series(capture.MatchDown(udp), 0, total, time.Second),
		TCPUp:    sniff.Series(capture.MatchUp(tcp), 0, total, time.Second),
		Total:    total,
		Frozen:   u1.Frozen,
		FrozenAt: u1.FrozenAt,
	}
	// TCP uplink cannot tell recovery: retransmissions toward a dead server
	// keep it nonzero. Downlink TCP in the final clear stage can.
	final := applied[len(applied)-1].At
	res.TCPRecovered = sniff.Bytes(capture.MatchDown(tcp), final, total) > 0
	// Count quiet UDP-uplink seconds inside impaired stages.
	for i, st := range applied {
		if st.Stage.IsClear() {
			continue
		}
		from, to := stageWindow(applied, total, i)
		for _, v := range res.UDPUp.Window(from+2*time.Second, to) {
			if v < 1000 {
				res.UDPGapSeconds++
			}
		}
	}
	return res
}

// Render prints the Figure 13 artifact.
func (r *Fig13Result) Render() string {
	var b strings.Builder
	which := "uplink bandwidth stages (top)"
	if r.Mode == Fig13TCPOnly {
		which = "TCP-only uplink control (bottom)"
	}
	chart := &plot.Chart{
		Title:  fmt.Sprintf("Figure 13 (Horizon Worlds, Arena Clash): %s", which),
		YUnit:  "Mbps",
		YScale: 1e6,
		Series: []plot.Series{
			{Label: "UDP-up", Symbol: 'u', Data: r.UDPUp},
			{Label: "UDP-down", Symbol: 'D', Data: r.UDPDown},
			{Label: "TCP-up", Symbol: 'T', Data: r.TCPUp},
		},
		Markers: stageMarkers(r.Stages),
	}
	b.WriteString(chart.Render())
	t := &Table{Header: []string{"Stage", "UDP up (Mbps)", "UDP down (Mbps)", "TCP up (Mbps)"}}
	for i, st := range r.Stages {
		mean := func(ts *stats.TimeSeries) float64 { return stageMean(ts, r.Stages, r.Total, i) }
		t.Add(st.Stage.Label, mbps(mean(&r.UDPUp)), mbps(mean(&r.UDPDown)), mbps(mean(&r.TCPUp)))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "quiet UDP-uplink seconds inside impaired stages: %d\n", r.UDPGapSeconds)
	if r.Mode == Fig13TCPOnly {
		fmt.Fprintf(&b, "UDP session frozen: %v (at %.0fs); TCP recovered: %v\n",
			r.Frozen, r.FrozenAt.Seconds(), r.TCPRecovered)
	}
	return b.String()
}

// DisruptQoEResult is the §8.2 latency/loss tolerance artifact.
type DisruptQoEResult struct {
	Rows []DisruptQoERow
}

// DisruptQoERow reports one platform/game's behaviour under added latency
// and loss.
type DisruptQoERow struct {
	Platform platform.Name
	Game     string
	// BaselineE2EMs is the unimpaired action latency.
	BaselineE2EMs float64
	// E2EAtAddedMs maps added one-way delay (ms) to measured E2E (ms).
	AddedMs []int
	E2EMs   []float64
	// ForwardLossTolerance: fraction of avatar updates still delivered at
	// 20% packet loss (UDP platforms tolerate loss by design).
	DeliveredAt20PctLoss float64
}

// DisruptLatencyLoss reproduces §8.2 for the three shooting-game platforms.
// Each platform's six labs (the baseline, one per added delay, and the
// loss-free and lossy forward counts) are six cells of one fan-out, with the
// seeds and labels of the serial sweep, collected in platform order.
func DisruptLatencyLoss(e Env) *DisruptQoEResult {
	names := []platform.Name{platform.Worlds, platform.RecRoom, platform.VRChat}
	added := []int{50, 100, 200}
	losses := []float64{0, 0.20}
	perPlatform := 1 + len(added) + len(losses)
	vals := cells(e, len(names)*perPlatform, func(i int) float64 {
		name, k := names[i/perPlatform], i%perPlatform
		label := "disrupt-lat/" + string(name)
		switch {
		case k == 0:
			return measureLatency(e, label+"/baseline", name, 2, 8, e.Seed, false).E2E.Mean
		case k <= len(added):
			return latencyWithDelay(e, label, name, added[k-1], e.Seed+int64(added[k-1]))
		default:
			return float64(forwardsIn40s(e, label, name, losses[k-1-len(added)], e.Seed^0x44))
		}
	})
	res := &DisruptQoEResult{}
	for i, name := range names {
		v := vals[i*perPlatform : (i+1)*perPlatform]
		row := DisruptQoERow{Platform: name, Game: platform.Get(name).Game.Name, BaselineE2EMs: v[0],
			AddedMs: append([]int(nil), added...), E2EMs: append([]float64(nil), v[1:1+len(added)]...)}
		// The share of avatar forwards still delivered at 20% downlink loss.
		if lossless, lossy := v[1+len(added)], v[2+len(added)]; lossless > 0 {
			row.DeliveredAt20PctLoss = lossy / lossless
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func latencyWithDelay(e Env, label string, name platform.Name, addedMs int, seed int64) float64 {
	l := e.lab(fmt.Sprintf("%s/delay%dms", label, addedMs), seed)
	defer l.MustConserve()
	cs := l.Spawn(name, 2, SpawnOpts{Room: "qoe"})
	l.Sched.At(3*time.Second, func() {
		sc := &disrupt.Schedule{Host: cs[0].Host, Dir: disrupt.Uplink, Stages: []disrupt.Stage{
			{Label: "delay", Delay: time.Duration(addedMs) * time.Millisecond, Duration: 5 * time.Minute},
		}}
		sc.Run(l.Sched, l.Sched.Now())
	})
	var ids []uint32
	for i := 0; i < 8; i++ {
		l.Sched.At(10*time.Second+time.Duration(i)*2*time.Second, func() { ids = append(ids, cs[0].PerformAction()) })
	}
	l.Sched.RunUntil(40 * time.Second)
	return breakdown(l, cs[0], cs[1], ids).E2E.Mean
}

// forwardsIn40s counts the avatar forwards that arrive at U1 under
// downlink random loss.
func forwardsIn40s(e Env, label string, name platform.Name, loss float64, seed int64) int {
	l := e.lab(fmt.Sprintf("%s/loss%.0fpct", label, loss*100), seed)
	defer l.MustConserve()
	cs := l.Spawn(name, 2, SpawnOpts{})
	if loss > 0 {
		l.Sched.At(3*time.Second, func() {
			sc := &disrupt.Schedule{Host: cs[0].Host, Dir: disrupt.Downlink, Stages: []disrupt.Stage{
				{Label: "loss", Loss: loss, Duration: 5 * time.Minute},
			}}
			sc.Run(l.Sched, l.Sched.Now())
		})
	}
	l.Sched.RunUntil(45 * time.Second)
	return cs[0].ForwardsReceived
}

// Render prints the §8.2 artifact.
func (r *DisruptQoEResult) Render() string {
	var b strings.Builder
	b.WriteString("§8.2 latency & loss disruptions (shooting games)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s (%s): baseline e2e=%.1fms;", row.Platform, row.Game, row.BaselineE2EMs)
		for i, added := range row.AddedMs {
			fmt.Fprintf(&b, " +%dms→%.1fms", added, row.E2EMs[i])
		}
		fmt.Fprintf(&b, "; delivery at 20%% loss = %.0f%%\n", row.DeliveredAt20PctLoss*100)
	}
	return b.String()
}
