package experiment

import (
	"fmt"
	"strings"
	"time"

	"github.com/svrlab/svrlab/internal/capture"
	"github.com/svrlab/svrlab/internal/platform"
	"github.com/svrlab/svrlab/internal/world"
)

// ViewportResult is the §6.1 viewport-width detection artifact.
type ViewportResult struct {
	Platform platform.Name
	// DownByYawOffset maps the angular offset between U1's facing and the
	// bearing to U2 (in 22.5° controller steps) to mean downlink bps.
	Offsets []float64 // degrees
	Down    []float64 // bps at each offset
	// EstimatedWidthDeg is the detected viewport width.
	EstimatedWidthDeg float64
	// MaxSavingFrac = 1 - width/360.
	MaxSavingFrac float64
}

// Viewport reproduces the detection experiment: U1 starts with its back to
// U2 and snap-turns one 22.5° click at a time; the downlink reveals at which
// offsets the server forwards U2's avatar. The paper default is AltspaceVR.
func Viewport(e Env) *ViewportResult {
	name := e.platformOr(platform.AltspaceVR)
	l := e.lab("viewport/"+string(name), e.Seed)
	defer l.MustConserve()
	res := &ViewportResult{Platform: name}

	u1 := platform.NewClient(l.Dep, name, "u1", platform.SiteCampus, 10)
	u2 := platform.NewClient(l.Dep, name, "u2", platform.SiteCampus, 11)
	u1.Muted, u2.Muted = true, true
	l.Sched.At(0, u1.Launch)
	l.Sched.At(0, u2.Launch)
	l.Sched.At(time.Second, func() {
		u1.JoinEvent("vp")
		u2.JoinEvent("vp")
		// U2 due east of U1; U1 initially faces west (back turned).
		u1.StandAt(world.Vec2{X: 10, Y: 10}, 180)
		u2.StandAt(world.Vec2{X: 15, Y: 10}, 0)
	})
	sniff := l.Capture(u1.Host)

	// 16 clicks of 22.5°, holding each orientation for 20 s.
	const hold = 20 * time.Second
	start := 10 * time.Second
	for click := 1; click < 16; click++ {
		l.Sched.At(start+time.Duration(click)*hold, func() { u1.Turn(1) })
	}
	end := start + 16*hold
	l.Sched.RunUntil(end + time.Second)

	f := l.dataOnly(u1)
	visibleCount := 0
	for click := 0; click < 16; click++ {
		from := start + time.Duration(click)*hold + 4*time.Second
		to := start + time.Duration(click+1)*hold
		bps := sniff.MeanBps(capture.MatchDown(f), from, to)
		// Offset between facing and the bearing to U2 (0° = facing U2).
		yaw := world.NormalizeDeg(180 + float64(click)*world.TurnStepDeg)
		offset := world.AngularDiff(yaw, 0)
		res.Offsets = append(res.Offsets, offset)
		res.Down = append(res.Down, bps)
	}
	// Threshold at the midpoint between the observed extremes.
	lo, hi := res.Down[0], res.Down[0]
	for _, v := range res.Down {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	thresh := (lo + hi) / 2
	for _, v := range res.Down {
		if v > thresh {
			visibleCount++
		}
	}
	// Each visible orientation covers one 22.5° step.
	res.EstimatedWidthDeg = float64(visibleCount) * world.TurnStepDeg
	res.MaxSavingFrac = 1 - res.EstimatedWidthDeg/360
	if hi-lo < hi*0.25 {
		// No meaningful modulation: the platform forwards regardless of
		// orientation (all platforms except AltspaceVR).
		res.EstimatedWidthDeg = 360
		res.MaxSavingFrac = 0
	}
	return res
}

// Render prints the detection sweep.
func (r *ViewportResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§6.1 viewport detection (%s): downlink vs yaw offset to the peer\n", r.Platform)
	for i := range r.Offsets {
		fmt.Fprintf(&b, "  offset=%6.1f°  down=%8s kbps\n", r.Offsets[i], kbps(r.Down[i]))
	}
	if r.MaxSavingFrac > 0 {
		fmt.Fprintf(&b, "estimated viewport width ≈ %.1f° → up to %.0f%% data saving\n",
			r.EstimatedWidthDeg, r.MaxSavingFrac*100)
	} else {
		fmt.Fprintf(&b, "no viewport-dependent forwarding detected\n")
	}
	return b.String()
}
