package experiment

import (
	"fmt"
	"strings"
	"time"

	"github.com/svrlab/svrlab/internal/capture"
	"github.com/svrlab/svrlab/internal/device"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/platform"
	"github.com/svrlab/svrlab/internal/stats"
)

// Table3Row is one platform's two-user throughput characterization.
type Table3Row struct {
	Platform   platform.Name
	UpMean     float64 // bps, data channels
	UpStd      float64
	DownMean   float64
	DownStd    float64
	Resolution device.Resolution
	AvatarMean float64 // bps, from the mute-join differencing method
	AvatarStd  float64
}

// Table3Result reproduces paper Table 3.
type Table3Result struct {
	Rows    []Table3Row
	Repeats int
}

// Table3 measures two users walking and chatting on each platform. The
// avatar share uses the paper's differencing method (§5.2): measure U1's
// downlink alone (T), then with U2 joined mutely (T'), and attribute T'-T
// to U2's avatar embodiment and motion.
func Table3(e Env) *Table3Result {
	repeats := e.repeatsOr(5)
	// One cell per (platform, repeat): the chat session and the differencing
	// session, both private labs seeded exactly as the serial sweep.
	all := platform.All()
	type t3cell struct{ up, down, avatar float64 }
	reps := perPoint(e, all, repeats, func(p *platform.Profile, r int) t3cell {
		label, seed := fmt.Sprintf("table3/%s/rep%d", p.Name, r), e.Seed+int64(r)*101
		up, down := twoUserRates(e, label+"/chat", p, seed)
		return t3cell{up: up, down: down, avatar: avatarShare(e, label+"/diff", p, seed)}
	})
	res := &Table3Result{Repeats: repeats}
	for i, p := range all {
		us := summary(reps[i], func(c t3cell) float64 { return c.up })
		ds := summary(reps[i], func(c t3cell) float64 { return c.down })
		as := summary(reps[i], func(c t3cell) float64 { return c.avatar })
		res.Rows = append(res.Rows, Table3Row{
			Platform: p.Name,
			UpMean:   us.Mean, UpStd: us.Std,
			DownMean: ds.Mean, DownStd: ds.Std,
			Resolution: p.Cost.Res,
			AvatarMean: as.Mean, AvatarStd: as.Std,
		})
	}
	return res
}

// twoUserRates measures U1's steady data-channel rates with two unmuted
// walking users.
func twoUserRates(e Env, label string, p *platform.Profile, seed int64) (up, down float64) {
	l := e.lab(label, seed)
	defer l.MustConserve()
	cs := l.Spawn(p.Name, 2, SpawnOpts{Voice: true, Wander: true})
	sniff := l.Capture(cs[0].Host)
	l.Sched.RunUntil(70 * time.Second)
	f := l.dataOnly(cs[0])
	from, to := 20*time.Second, 70*time.Second
	return sniff.MeanBps(capture.MatchUp(f), from, to), sniff.MeanBps(capture.MatchDown(f), from, to)
}

// avatarShare runs the paper's differencing experiment: U1 alone (downlink
// T), then U2 joins mutely (downlink T'); the difference is U2's avatar
// stream.
func avatarShare(e Env, label string, p *platform.Profile, seed int64) float64 {
	l := e.lab(label, seed^0x717)
	defer l.MustConserve()
	u1 := platform.NewClient(l.Dep, p.Name, "u1", platform.SiteCampus, 10)
	u1.Muted = true
	u1.Wander = true
	u2 := platform.NewClient(l.Dep, p.Name, "u2", platform.SiteCampus, 11)
	u2.Muted = true
	u2.Wander = true
	l.Sched.At(0, u1.Launch)
	l.Sched.At(0, u2.Launch)
	l.Sched.At(time.Second, func() { u1.JoinEvent("diff") })
	sniff := l.Capture(u1.Host)
	// Phase 1: U1 alone, 40 s.
	l.Sched.RunUntil(45 * time.Second)
	// Phase 2: U2 joins mutely.
	u2.JoinEvent("diff")
	l.Sched.RunUntil(100 * time.Second)

	f := l.dataOnly(u1)
	alone := sniff.MeanBps(capture.MatchDown(f), 10*time.Second, 44*time.Second)
	together := sniff.MeanBps(capture.MatchDown(f), 55*time.Second, 100*time.Second)
	d := together - alone
	if d < 0 {
		d = 0
	}
	return d
}

// Render prints the Table 3 artifact.
func (r *Table3Result) Render() string {
	t := &Table{Header: []string{"Platform", "Up (kbps)", "Down (kbps)", "Resolution", "Avatar (kbps)"}}
	for _, row := range r.Rows {
		t.Add(string(row.Platform),
			fmt.Sprintf("%s/%s", kbps(row.UpMean), kbps(row.UpStd)),
			fmt.Sprintf("%s/%s", kbps(row.DownMean), kbps(row.DownStd)),
			row.Resolution.String(),
			fmt.Sprintf("%s/%s", kbps(row.AvatarMean), kbps(row.AvatarStd)))
	}
	return fmt.Sprintf("Table 3: two-user throughput (avg/std over %d runs)\n%s", r.Repeats, t.String())
}

// Fig3Result captures the direct-forwarding evidence (paper Figure 3): U1's
// uplink matches U2's downlink.
type Fig3Result struct {
	Platform     platform.Name
	U1Up, U2Down stats.TimeSeries
	Correlation  float64
	MeanRatio    float64 // mean(U2 down) / mean(U1 up)
}

// Fig3 measures instantaneous U1-uplink and U2-downlink series and their
// correlation on one platform (the paper shows Rec Room and Worlds; the
// default is Rec Room).
func Fig3(e Env) *Fig3Result {
	name := e.platformOr(platform.RecRoom)
	l := e.lab("fig3/"+string(name), e.Seed)
	defer l.MustConserve()
	p := platform.Get(name)
	cs := l.Spawn(name, 2, SpawnOpts{Voice: true, Wander: true})
	s1 := l.Capture(cs[0].Host)
	s2 := l.Capture(cs[1].Host)
	l.Sched.RunUntil(70 * time.Second)
	udp := capture.FilterAnd(l.notAsset(p), capture.FilterProto(packet.ProtoUDP))
	from, to := 15*time.Second, 70*time.Second
	up := s1.Series(capture.MatchUp(udp), from, to, time.Second)
	down := s2.Series(capture.MatchDown(udp), from, to, time.Second)
	// Align by shifting one bucket (propagation + forwarding delay < 1 s,
	// so the same-second correlation already captures the match).
	corr := stats.Pearson(up.Values, down.Values)
	su, sd := stats.Summarize(up.Values), stats.Summarize(down.Values)
	ratio := 0.0
	if su.Mean > 0 {
		ratio = sd.Mean / su.Mean
	}
	return &Fig3Result{Platform: name, U1Up: up, U2Down: down, Correlation: corr, MeanRatio: ratio}
}

// Render prints the Figure 3 artifact.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 (%s): U1 uplink vs U2 downlink (kbps)\n", r.Platform)
	for i := 0; i < len(r.U1Up.Values); i += 5 {
		t := r.U1Up.Start + time.Duration(i)*r.U1Up.Step
		fmt.Fprintf(&b, "  t=%3.0fs  u1-up=%8s  u2-down=%8s\n", t.Seconds(), kbps(r.U1Up.Values[i]), kbps(r.U2Down.At(t)))
	}
	fmt.Fprintf(&b, "mean ratio (u2-down / u1-up) = %.2f, correlation = %.2f\n", r.MeanRatio, r.Correlation)
	return b.String()
}
