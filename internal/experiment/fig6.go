package experiment

import (
	"fmt"
	"strings"
	"time"

	"github.com/svrlab/svrlab/internal/capture"
	"github.com/svrlab/svrlab/internal/platform"
	"github.com/svrlab/svrlab/internal/plot"
	"github.com/svrlab/svrlab/internal/stats"
	"github.com/svrlab/svrlab/internal/world"
)

// Fig6Variant selects the controlled-join choreography.
type Fig6Variant int

const (
	// Fig6FacingJoiners: U1 at the center sees everyone; turns 180° at
	// 250 s so all avatars leave the viewport (Figure 6 a-e).
	Fig6FacingJoiners Fig6Variant = iota
	// Fig6FacingCorner: U1 faces the corner for 250 s while joiners gather
	// behind at the center, then turns to face them (Figure 6 f,
	// "AltspaceVR Exp. 2").
	Fig6FacingCorner
)

// Fig6Result is the 300-second join-scalability timeline.
type Fig6Result struct {
	Platform  platform.Name
	Variant   Fig6Variant
	Up, Down  stats.TimeSeries // 1 s buckets, bits/s
	JoinTimes []time.Duration
	TurnAt    time.Duration
}

// Fig6 reproduces the §6.1 controlled experiment: U2-U5 join at 50, 100,
// 150, 200 s; at 250 s U1 turns around. All users join mutely. The paper
// default is AltspaceVR.
func Fig6(e Env, variant Fig6Variant) *Fig6Result {
	return fig6Run(e, "fig6", e.platformOr(platform.AltspaceVR), variant)
}

// fig6Run is one Figure 6 panel, traced under the experiment id, platform
// and variant.
func fig6Run(e Env, id string, name platform.Name, variant Fig6Variant) *Fig6Result {
	facing := "joiners"
	if variant == Fig6FacingCorner {
		facing = "corner"
	}
	l := e.lab(id+"/"+string(name)+"/"+facing, e.Seed)
	defer l.MustConserve()
	const total = 300 * time.Second
	turnAt := 250 * time.Second
	center := world.Vec2{X: 10, Y: 10}

	u1 := platform.NewClient(l.Dep, name, "u1", platform.SiteCampus, 10)
	u1.Muted = true
	l.Sched.At(0, u1.Launch)
	l.Sched.At(time.Second, func() {
		u1.JoinEvent("fig6")
		switch variant {
		case Fig6FacingJoiners:
			// U1 at the center, facing +X where the joiners stand.
			u1.StandAt(center, 0)
		case Fig6FacingCorner:
			// U1 near the corner, facing away from the center.
			u1.StandAt(world.Vec2{X: 2, Y: 2}, 225)
		}
	})

	joins := []time.Duration{50 * time.Second, 100 * time.Second, 150 * time.Second, 200 * time.Second}
	for i, at := range joins {
		i := i
		c := platform.NewClient(l.Dep, name, fmt.Sprintf("u%d", i+2), platform.SiteCampus, 11+i)
		c.Muted = true
		l.Sched.At(0, c.Launch)
		l.Sched.At(at, func() {
			c.JoinEvent("fig6")
			switch variant {
			case Fig6FacingJoiners:
				// Joiners ahead of U1 (+X side), visible immediately.
				c.StandAt(world.Vec2{X: 14, Y: 8 + float64(i)}, 180)
			case Fig6FacingCorner:
				// Joiners gather at the center, behind U1.
				c.StandAt(world.Vec2{X: 10 + float64(i), Y: 10}, 225)
			}
		})
	}
	l.Sched.At(turnAt, func() { u1.Turn(8) }) // 8 × 22.5° = 180°

	sniff := l.Capture(u1.Host)
	l.Sched.RunUntil(total)

	f := l.dataOnly(u1)
	return &Fig6Result{
		Platform:  name,
		Variant:   variant,
		Up:        sniff.Series(capture.MatchUp(f), 0, total, time.Second),
		Down:      sniff.Series(capture.MatchDown(f), 0, total, time.Second),
		JoinTimes: joins,
		TurnAt:    turnAt,
	}
}

// Fig6PanelsResult is the full Figure 6: the five per-platform join
// staircases (panels a-e) plus the AltspaceVR corner-facing variant (f).
type Fig6PanelsResult struct {
	Panels []*Fig6Result
}

// Fig6Panels runs the controlled-join experiment on all five platforms plus
// the AltspaceVR corner variant. Each panel is an independent 300 s Lab, so
// the six cells fan out across the worker pool; output keeps the paper's
// panel order.
func Fig6Panels(e Env) *Fig6PanelsResult {
	all := platform.All()
	panels := cells(e, len(all)+1, func(i int) *Fig6Result {
		if i < len(all) {
			return fig6Run(e, "fig6all", all[i].Name, Fig6FacingJoiners)
		}
		return fig6Run(e, "fig6all", platform.AltspaceVR, Fig6FacingCorner)
	})
	return &Fig6PanelsResult{Panels: panels}
}

// Render prints all panels in order.
func (r *Fig6PanelsResult) Render() string {
	var b strings.Builder
	for _, p := range r.Panels {
		b.WriteString(p.Render())
	}
	return b.String()
}

// StepMeans returns the mean downlink in each join interval: [1,50), [50,
// 100) ... [200,250), and after the turn [255,300).
func (r *Fig6Result) StepMeans() []float64 {
	edges := []time.Duration{5 * time.Second, 50 * time.Second, 100 * time.Second, 150 * time.Second, 200 * time.Second, 250 * time.Second, 300 * time.Second}
	var out []float64
	for i := 0; i+1 < len(edges); i++ {
		from := edges[i]
		if i > 0 {
			from += 5 * time.Second // settle after each join
		}
		if i == len(edges)-2 {
			from = edges[i] + 5*time.Second // after the turn
		}
		out = append(out, r.Down.MeanInWindow(from, edges[i+1]))
	}
	return out
}

// Render prints the timeline chart.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	variant := "facing joiners (Exp. 1)"
	if r.Variant == Fig6FacingCorner {
		variant = "facing corner (Exp. 2)"
	}
	markers := []plot.Marker{{At: r.TurnAt, Label: "turn"}}
	for i, at := range r.JoinTimes {
		label := ""
		if i == 0 {
			label = "joins"
		}
		markers = append(markers, plot.Marker{At: at, Label: label})
	}
	chart := &plot.Chart{
		Title:  fmt.Sprintf("Figure 6 (%s, %s)", r.Platform, variant),
		YUnit:  "kbps",
		YScale: 1000,
		Series: []plot.Series{
			{Label: "uplink", Symbol: 'u', Data: r.Up},
			{Label: "downlink", Symbol: 'D', Data: r.Down},
		},
		Markers: markers,
	}
	b.WriteString(chart.Render())
	sm := r.StepMeans()
	fmt.Fprintf(&b, "interval downlink means (kbps):")
	for _, v := range sm {
		fmt.Fprintf(&b, " %s", kbps(v))
	}
	b.WriteString("\n")
	return b.String()
}
