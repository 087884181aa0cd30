package experiment

import (
	"fmt"
	"time"

	"github.com/svrlab/svrlab/internal/capture"
	"github.com/svrlab/svrlab/internal/platform"
)

// DecimatePoint compares full-rate and decimated forwarding at one event
// size.
type DecimatePoint struct {
	Users          int
	FullDownBps    float64
	DecimatedBps   float64
	SavingFraction float64
}

// DecimateResult is the §6.2 update-rate-decimation ablation: forwarding
// distant ("non-interacting") avatars at a third of the rate cuts the
// downlink without touching nearby interactions.
type DecimateResult struct {
	Platform platform.Name
	Factor   int
	Radius   float64
	Points   []DecimatePoint
}

// Decimate measures the saving of the proposed optimization. The paper
// default is VRChat.
func Decimate(e Env) *DecimateResult {
	const factor = 3
	const radius = 2.0 // meters; the circle arrangement spaces users wider
	name := e.platformOr(platform.VRChat)
	eligible := eligibleCounts(platform.Get(name), e.countsOr([]int{5, 10, 15}))
	points := cells(e, len(eligible), func(i int) DecimatePoint {
		n := eligible[i]
		label, seed := fmt.Sprintf("decimate/%s/n%d", name, n), e.Seed+int64(n)
		_, full := steadyRates(e, label+"/full", name, n, seed, nil)
		_, dec := steadyRates(e, label+"/decimated", name, n, seed, &platform.DecimationPolicy{Factor: factor, InteractRadius: radius})
		pt := DecimatePoint{Users: n, FullDownBps: full, DecimatedBps: dec}
		if full > 0 {
			pt.SavingFraction = 1 - dec/full
		}
		return pt
	})
	return &DecimateResult{Platform: name, Factor: factor, Radius: radius, Points: points}
}

// steadyRates runs an n-user event of one platform for 40 s, its users
// standing in a circle from 2 s and its backend forwarding under policy
// (nil: at full rate), and returns U1's data-channel uplink and downlink
// over the steady 15–40 s window.
func steadyRates(e Env, label string, name platform.Name, n int, seed int64, policy *platform.DecimationPolicy) (up, down float64) {
	l := e.lab(label, seed)
	defer l.MustConserve()
	l.Dep.Backend(name).SetDecimation(policy)
	cs := l.Spawn(name, n, SpawnOpts{})
	l.Sched.At(2*time.Second, func() { arrangeCircle(cs) })
	sniff := l.Capture(cs[0].Host)
	l.Sched.RunUntil(40 * time.Second)
	data := l.dataOnly(cs[0])
	return sniff.MeanBps(capture.MatchUp(data), 15*time.Second, 40*time.Second),
		sniff.MeanBps(capture.MatchDown(data), 15*time.Second, 40*time.Second)
}

// Render prints the ablation.
func (r *DecimateResult) Render() string {
	t := &Table{Header: []string{"Users", "Full rate (kbps)", "Decimated (kbps)", "Saving"}}
	for _, pt := range r.Points {
		t.Add(fmt.Sprintf("%d", pt.Users),
			kbps(pt.FullDownBps), kbps(pt.DecimatedBps),
			fmt.Sprintf("%.0f%%", pt.SavingFraction*100))
	}
	return fmt.Sprintf("§6.2 ablation (%s): update-rate decimation 1/%d beyond %.0fm\n%s",
		r.Platform, r.Factor, r.Radius, t.String())
}
