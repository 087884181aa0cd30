// Package disrupt drives tc-netem-style impairment schedules against a
// host, reproducing the §8 methodology: each restricted condition lasts 40
// seconds, followed by 60 seconds of recovery ("N" in Figures 12-13).
package disrupt

import (
	"strconv"
	"time"

	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/simtime"
	"github.com/svrlab/svrlab/internal/trace"
)

// The side of the host's access link a schedule impairs.
const (
	Uplink   = netsim.DirUp
	Downlink = netsim.DirDown
)

// Stage is one impairment period.
type Stage struct {
	// Label appears in reports ("1.0", "0.5", "5s", "100%", "N").
	Label string
	// The impairment; a zero Netem (no rate, delay, or loss) means an
	// unimpaired recovery stage.
	RateBps float64
	Delay   time.Duration
	Loss    float64
	// TCPOnly restricts the impairment to TCP packets.
	TCPOnly bool
	// Duration of the stage.
	Duration time.Duration
}

// IsClear reports whether the stage imposes no impairment.
func (s Stage) IsClear() bool { return s.RateBps == 0 && s.Delay == 0 && s.Loss == 0 }

// Schedule applies stages back to back.
type Schedule struct {
	Host   *netsim.Host
	Dir    netsim.Dir
	Stages []Stage

	// Applied records (start, stage) pairs as they take effect.
	Applied []AppliedStage
}

// AppliedStage logs when a stage took effect.
type AppliedStage struct {
	At    time.Duration
	Stage Stage
}

// Run installs the schedule on the scheduler starting at the given time.
// The host's netem for the chosen direction is replaced at each stage
// boundary and cleared after the last stage.
func (sc *Schedule) Run(sched *simtime.Scheduler, start time.Duration) (end time.Duration) {
	at := start
	for _, st := range sc.Stages {
		st := st
		t := at
		sched.At(t, func() {
			sc.Applied = append(sc.Applied, AppliedStage{At: sched.Now(), Stage: st})
			sc.apply(st)
		})
		at += st.Duration
	}
	sched.At(at, func() { sc.apply(Stage{}) })
	return at
}

func (sc *Schedule) apply(st Stage) {
	var ne *netsim.Netem
	if !st.IsClear() {
		ne = &netsim.Netem{RateBps: st.RateBps, Delay: st.Delay, Loss: st.Loss, TCPOnly: st.TCPOnly}
	}
	if sc.Dir == Uplink {
		sc.Host.UpNetem = ne
	} else {
		sc.Host.DownNetem = ne
	}
	// Stage boundaries are cold-path; formatting the label here is fine.
	label := st.Label
	if label == "" {
		label = "clear"
	}
	sc.Host.Trace(trace.KindNetem, 0, sc.Dir.String()+":"+label, int64(st.RateBps), int64(st.Delay/time.Microsecond))
}

// The paper's §8 parameter sweeps.

// DownlinkBandwidthStages: 1, 0.7, 0.5, 0.3, 0.2, 0.1 Mbps, each 40 s with
// a 60 s recovery after each stage would exceed the paper's 300 s figure;
// the paper applies consecutive 40 s stages then recovery ("N").
func DownlinkBandwidthStages() []Stage {
	mbps := []float64{1.0, 0.7, 0.5, 0.3, 0.2, 0.1}
	return rateStages(mbps)
}

// UplinkBandwidthStages: 1.5, 1.2, 1, 0.7, 0.5, 0.3 Mbps.
func UplinkBandwidthStages() []Stage {
	return rateStages([]float64{1.5, 1.2, 1.0, 0.7, 0.5, 0.3})
}

func rateStages(mbps []float64) []Stage {
	var out []Stage
	for _, m := range mbps {
		out = append(out, Stage{Label: strconv.FormatFloat(m, 'f', 1, 64), RateBps: m * 1e6, Duration: 40 * time.Second})
	}
	out = append(out, Stage{Label: "N", Duration: 60 * time.Second})
	return out
}

// TCPDelayStages reproduces Figure 13 (bottom): TCP-only uplink delays of
// 5, 10, 15 s, then 100% TCP loss, then clear.
func TCPDelayStages() []Stage {
	var out []Stage
	for _, s := range []int{5, 10, 15} {
		out = append(out, Stage{
			Label: strconv.Itoa(s) + "s", Delay: time.Duration(s) * time.Second,
			TCPOnly: true, Duration: 60 * time.Second,
		})
	}
	out = append(out, Stage{Label: "100%", Loss: 1.0, TCPOnly: true, Duration: 60 * time.Second})
	out = append(out, Stage{Label: "N", Duration: 60 * time.Second})
	return out
}
