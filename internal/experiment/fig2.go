package experiment

import (
	"fmt"
	"strings"
	"time"

	"github.com/svrlab/svrlab/internal/capture"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/platform"
	"github.com/svrlab/svrlab/internal/plot"
	"github.com/svrlab/svrlab/internal/stats"
)

// Fig2Result is the control-vs-data channel timeline (paper Figure 2): two
// users, 180 s, welcome page until 90 s, then a social event.
type Fig2Result struct {
	Platform platform.Name
	JoinAt   time.Duration
	// 1-second bucketed series in bits/s.
	ControlUp, ControlDown stats.TimeSeries
	DataUp, DataDown       stats.TimeSeries
}

// Fig2 runs the two-phase session and splits U1's traffic into control and
// data channels by server endpoint and protocol, as the capture analysis in
// §4.1 does. The Hubs initial scene download (>100 Mbit/s) is excluded, as
// in the paper. The paper default is VRChat.
func Fig2(e Env) *Fig2Result {
	name := e.platformOr(platform.VRChat)
	l := e.lab("fig2/"+string(name), e.Seed)
	defer l.MustConserve()
	p := platform.Get(name)
	const joinAt = 90 * time.Second
	const total = 180 * time.Second
	l.Trace().Phase(0, "welcome")
	l.Trace().Phase(joinAt, "social-event")
	cs := l.Spawn(name, 2, SpawnOpts{JoinAt: joinAt, Wander: true})
	sniff := l.Capture(cs[0].Host)
	l.Sched.RunUntil(total)

	ctrlAddr := l.Dep.ControlEndpoint(p, cs[0].Host.Site).Addr
	notAsset := l.notAsset(p)
	ctrlFilter := capture.FilterAnd(notAsset, capture.FilterRemote(ctrlAddr), capture.FilterProto(packet.ProtoTCP))
	// The data channel is the UDP traffic. Hubs also carries avatar state
	// on its HTTPS stream, which shares the control server's endpoint, so
	// the timeline counts that stream as control, not data.
	dataFilter := capture.FilterAnd(notAsset, capture.FilterProto(packet.ProtoUDP))

	bucket := time.Second
	return &Fig2Result{
		Platform:    name,
		JoinAt:      joinAt,
		ControlUp:   sniff.Series(capture.MatchUp(ctrlFilter), 0, total, bucket),
		ControlDown: sniff.Series(capture.MatchDown(ctrlFilter), 0, total, bucket),
		DataUp:      sniff.Series(capture.MatchUp(dataFilter), 0, total, bucket),
		DataDown:    sniff.Series(capture.MatchDown(dataFilter), 0, total, bucket),
	}
}

// WelcomeDataMean returns the mean data-channel throughput before the join
// (should be ~0: the data channel activates with social interaction).
func (r *Fig2Result) WelcomeDataMean() float64 {
	return (r.DataUp.MeanInWindow(5*time.Second, r.JoinAt) + r.DataDown.MeanInWindow(5*time.Second, r.JoinAt)) / 2
}

// EventDataMean returns the mean data throughput during the event.
func (r *Fig2Result) EventDataMean() float64 {
	end := r.JoinAt + 85*time.Second
	return (r.DataUp.MeanInWindow(r.JoinAt+10*time.Second, end) + r.DataDown.MeanInWindow(r.JoinAt+10*time.Second, end)) / 2
}

// WelcomeControlMean returns the mean control throughput on the welcome page.
func (r *Fig2Result) WelcomeControlMean() float64 {
	return (r.ControlUp.MeanInWindow(5*time.Second, r.JoinAt) + r.ControlDown.MeanInWindow(5*time.Second, r.JoinAt)) / 2
}

// Render prints the four series as a chart plus summary.
func (r *Fig2Result) Render() string {
	var b strings.Builder
	chart := &plot.Chart{
		Title:  fmt.Sprintf("Figure 2 (%s): control vs data channels", r.Platform),
		YUnit:  "kbps",
		YScale: 1000,
		Series: []plot.Series{
			{Label: "ctrl-up", Symbol: 'c', Data: r.ControlUp},
			{Label: "ctrl-down", Symbol: 'C', Data: r.ControlDown},
			{Label: "data-up", Symbol: 'd', Data: r.DataUp},
			{Label: "data-down", Symbol: 'D', Data: r.DataDown},
		},
		Markers: []plot.Marker{{At: r.JoinAt, Label: "social event"}},
	}
	b.WriteString(chart.Render())
	fmt.Fprintf(&b, "welcome: ctrl=%s kbps, data=%s kbps | event: data=%s kbps\n",
		kbps(r.WelcomeControlMean()), kbps(r.WelcomeDataMean()), kbps(r.EventDataMean()))
	return b.String()
}
