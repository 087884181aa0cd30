package experiment

import (
	"fmt"
	"time"

	"github.com/svrlab/svrlab/internal/capture"
	"github.com/svrlab/svrlab/internal/platform"
	"github.com/svrlab/svrlab/internal/stats"
)

// ScalePoint is one (platform, user-count) measurement with confidence
// intervals over repeated events.
type ScalePoint struct {
	Users   int
	DownBps stats.Summary
	FPS     stats.Summary
	CPU     stats.Summary
	GPU     stats.Summary
	MemMB   stats.Summary
	Battery stats.Summary // %/min drained over the steady window
}

// ScalingResult backs Figures 7 and 8 (and 9 for private Hubs): the public
// event sweep over user counts.
type ScalingResult struct {
	Platform platform.Name
	Points   []ScalePoint
	Repeats  int
	Private  bool
}

// PaperUserCounts is the Figure 7/8 x-axis.
var PaperUserCounts = []int{1, 2, 3, 4, 5, 7, 10, 12, 15}

// scaleCell is one event's raw measurements.
type scaleCell struct {
	down, fps, cpu, gpu, mem, batt float64
}

// Scaling measures U1's downlink throughput and device metrics in events of
// increasing size (paper §6.2). Events are capped at the platform's maximum
// (Worlds: 16). Every (user-count, repeat) cell runs its own Lab, so cells
// fan out across the worker pool; seeds and output order are identical to
// the serial sweep. The paper defaults are VRChat, PaperUserCounts and
// three repeats.
func Scaling(e Env) *ScalingResult {
	name, repeats := e.platformOr(platform.VRChat), e.repeatsOr(3)
	eligible := eligibleCounts(platform.Get(name), e.countsOr(PaperUserCounts))
	reps := perPoint(e, eligible, repeats, func(n, rep int) scaleCell {
		return scalingRun(e, fmt.Sprintf("fig7/%s/n%d/rep%d", name, n, rep), name, n, e.Seed+int64(rep)*977+int64(n))
	})
	res := &ScalingResult{Platform: name, Repeats: repeats}
	for i, n := range eligible {
		res.Points = append(res.Points, ScalePoint{Users: n,
			DownBps: summary(reps[i], func(c scaleCell) float64 { return c.down }),
			FPS:     summary(reps[i], func(c scaleCell) float64 { return c.fps }),
			CPU:     summary(reps[i], func(c scaleCell) float64 { return c.cpu }),
			GPU:     summary(reps[i], func(c scaleCell) float64 { return c.gpu }),
			MemMB:   summary(reps[i], func(c scaleCell) float64 { return c.mem }),
			Battery: summary(reps[i], func(c scaleCell) float64 { return c.batt }),
		})
	}
	return res
}

// scalingRun is one event: n users in a circle, everyone visible, measured
// over a 40 s steady window.
func scalingRun(e Env, label string, name platform.Name, n int, seed int64) (c scaleCell) {
	l := e.lab(label, seed)
	defer l.MustConserve()
	l.Trace().Phase(2*time.Second, "arrange")
	l.Trace().Phase(20*time.Second, "steady-window")
	cs := l.Spawn(name, n, SpawnOpts{})
	l.Sched.At(2*time.Second, func() { arrangeCircle(cs) })
	sniff := l.Capture(cs[0].Host)
	l.Sched.RunUntil(60 * time.Second)

	f := l.dataOnly(cs[0])
	c.down = sniff.MeanBps(capture.MatchDown(f), 20*time.Second, 60*time.Second)
	c.fps, c.cpu, c.gpu, c.mem = cs[0].Monitor.Means(20*time.Second, 60*time.Second)
	// Battery drain over the same 20-60 s steady window as throughput and
	// FPS, anchored at the 20 s battery snapshot (not an assumed full
	// charge) so warm-up drain is excluded. Units: %/min.
	c.batt = cs[0].Monitor.BatteryDrainPerMin(20*time.Second, 60*time.Second)
	return
}

// LinearFitDown reports the least-squares line of downlink vs users — the
// "grows almost linearly" check.
func (r *ScalingResult) LinearFitDown() (slopeBpsPerUser, r2 float64) {
	var xs, ys []float64
	for _, pt := range r.Points {
		xs = append(xs, float64(pt.Users))
		ys = append(ys, pt.DownBps.Mean)
	}
	_, b, rr, ok := stats.LinearFit(xs, ys)
	if !ok {
		return 0, 0
	}
	return b, rr
}

// Render prints one platform's Figure 7+8 rows.
func (r *ScalingResult) Render() string {
	t := &Table{Header: []string{"Users", "Down (Mbps)", "±CI", "FPS", "±CI", "CPU %", "GPU %", "Mem (GB)", "Batt %/10min"}}
	for _, pt := range r.Points {
		t.Add(fmt.Sprintf("%d", pt.Users),
			mbps(pt.DownBps.Mean), mbps(pt.DownBps.CI95),
			fmt.Sprintf("%.1f", pt.FPS.Mean), fmt.Sprintf("%.1f", pt.FPS.CI95),
			fmt.Sprintf("%.1f", pt.CPU.Mean), fmt.Sprintf("%.1f", pt.GPU.Mean),
			fmt.Sprintf("%.2f", pt.MemMB.Mean/1024),
			fmt.Sprintf("%.1f", pt.Battery.Mean*10))
	}
	slope, r2 := r.LinearFitDown()
	hdr := fmt.Sprintf("Figures 7+8 (%s): public-event scaling, %d repeats/point", r.Platform, r.Repeats)
	if r.Private {
		hdr = fmt.Sprintf("Figure 9 (%s, private server): large-scale event", r.Platform)
	}
	return fmt.Sprintf("%s\n%slinear fit: %.1f kbps/user, R²=%.3f\n", hdr, t.String(), slope/1000, r2)
}

// Fig9 runs the large-scale private-Hubs event (paper Figure 9, 15-28
// users) against a self-hosted server. Cells fan out like Scaling's.
func Fig9(e Env) *ScalingResult {
	counts, repeats := e.countsOr([]int{15, 20, 25, 28}), e.repeatsOr(2)
	reps := perPoint(e, counts, repeats, func(n, rep int) scaleCell {
		return fig9Run(e, fmt.Sprintf("fig9/n%d/rep%d", n, rep), n, e.Seed+int64(rep)*31+int64(n))
	})
	res := &ScalingResult{Platform: platform.Hubs, Repeats: repeats, Private: true}
	for i, n := range counts {
		res.Points = append(res.Points, ScalePoint{Users: n,
			DownBps: summary(reps[i], func(c scaleCell) float64 { return c.down }),
			FPS:     summary(reps[i], func(c scaleCell) float64 { return c.fps }),
		})
	}
	return res
}

// fig9Run is one private event, measured over a 35 s steady window. It
// fills the cell's downlink and FPS alone.
func fig9Run(e Env, label string, n int, seed int64) (c scaleCell) {
	l := e.lab(label, seed)
	defer l.MustConserve()
	l.Dep.DeployPrivateHubs(platform.SiteUSEast)
	cs := l.Spawn(platform.Hubs, n, SpawnOpts{Room: "big"})
	l.Sched.At(2*time.Second, func() { arrangeCircle(cs) })
	sniff := l.Capture(cs[0].Host)
	l.Sched.RunUntil(50 * time.Second)
	// All Hubs data rides HTTPS to the private server + RTP keepalive.
	p := platform.Get(platform.Hubs)
	f := l.notAsset(p)
	c.down = sniff.MeanBps(capture.MatchDown(f), 15*time.Second, 50*time.Second)
	c.fps, _, _, _ = cs[0].Monitor.Means(15*time.Second, 50*time.Second)
	return
}
