package experiment

import (
	"fmt"
	"slices"
	"time"

	"github.com/svrlab/svrlab/internal/chaos"
	"github.com/svrlab/svrlab/internal/platform"
	"github.com/svrlab/svrlab/internal/stats"
)

// Resilience timeline: clients reach steady state, the observer's data
// server crashes mid-session, and it returns before the run ends.
const (
	resSteadyAt = 20 * time.Second
	resCrashAt  = 25 * time.Second
	resHealAt   = 40 * time.Second
	resEndAt    = 70 * time.Second
)

// resStale is the staleness threshold separating an avatar freeze from the
// ordinary gap between consecutive forwards (tens of milliseconds at every
// platform's update rate).
const resStale = time.Second

// ResilienceRow is one platform's aggregated crash-recovery behaviour.
type ResilienceRow struct {
	Platform platform.Name
	Recovery stats.Summary // seconds from crash to the next received forward
	Freeze   stats.Summary // seconds the remote avatar stood still (max gap)
	Failover bool          // every repeat recovered while the server was down
}

// ResilienceResult is the Table-2-style artifact: how each platform's data
// placement (anycast pool, regional unicast, single west-coast host) turns
// the same 15-second server crash into very different user experiences.
type ResilienceResult struct {
	Rows []ResilienceRow

	fromChaos bool // the faults came from Env.Chaos, not the built-in crash
}

type resCell struct {
	recovery, freeze float64 // seconds
	failover         bool
}

// Resilience crashes each platform's serving data instance from t=25s to
// t=40s and measures, at a two-user session's observer, how long avatars
// froze and how long the session took to see fresh data again. A non-empty
// Env.Chaos replaces the built-in crash: every cell runs it from its start.
func Resilience(e Env) *ResilienceResult {
	repeats := e.repeatsOr(3)
	all := platform.All()
	reps := perPoint(e, all, repeats, func(p *platform.Profile, r int) resCell {
		return resilienceCell(e, fmt.Sprintf("resilience/%s/rep%d", p.Name, r), p, e.Seed+int64(r)*101)
	})
	res := &ResilienceResult{fromChaos: !e.Chaos.Empty()}
	for i, p := range all {
		res.Rows = append(res.Rows, ResilienceRow{
			Platform: p.Name,
			Recovery: summary(reps[i], func(c resCell) float64 { return c.recovery }),
			Freeze:   summary(reps[i], func(c resCell) float64 { return c.freeze }),
			Failover: !slices.ContainsFunc(reps[i], func(c resCell) bool { return !c.failover }),
		})
	}
	return res
}

func resilienceCell(e Env, label string, p *platform.Profile, seed int64) resCell {
	l := e.lab(label, seed)
	defer l.MustConserve()
	n := l.Dep.Net
	cs := l.Spawn(p.Name, 2, SpawnOpts{})
	observer := cs[0]

	// Install the built-in fault once the session is up: by then the
	// observer has resolved its data endpoint, so the fault can target the
	// exact instance serving it (for anycast, the nearest pool member).
	if e.Chaos.Empty() {
		l.Sched.At(resSteadyAt, func() {
			srv, ok := n.Resolve(observer.DataEndpointAddr(), observer.Host.Site)
			if !ok {
				panic("experiment: resilience could not resolve the serving data instance")
			}
			sc := &chaos.Schedule{Net: n, Faults: []chaos.Fault{{
				Label: "data-server",
				Kind:  chaos.HostCrash,
				Host:  srv,
				Start: resCrashAt - resSteadyAt,
				// Healed at resHealAt; unicast platforms can only recover then.
				Duration: resHealAt - resCrashAt,
			}}}
			sc.Run(l.Sched, resSteadyAt)
		})
	}

	// Sample avatar freshness at 10 Hz across the fault window. A freeze is
	// staleness beyond resStale; recovery is when the stream resumes after
	// the final freeze. In-flight packets delivered moments after the crash
	// instant must not count as recovery, hence the gap-based definition.
	var frozenMax, recoveredAt time.Duration
	frozen := false
	stop := l.Sched.Ticker(100*time.Millisecond, func() {
		now := l.Sched.Now()
		if now < resCrashAt {
			return
		}
		stale := now - observer.LastRemoteUpdate()
		if stale >= resStale {
			frozen = true
			if stale > frozenMax {
				frozenMax = stale
			}
		} else if frozen {
			frozen = false
			recoveredAt = now
		}
	})
	l.Sched.RunUntil(resEndAt)
	stop()

	c := resCell{freeze: frozenMax.Seconds()}
	switch {
	case frozen: // still stale at end of run: never recovered
		c.recovery = (resEndAt - resCrashAt).Seconds()
	case recoveredAt == 0: // never froze: seamless failover
		c.failover = true
	default:
		c.recovery = (recoveredAt - resCrashAt).Seconds()
		c.failover = recoveredAt < resHealAt
	}
	return c
}

// Render formats the Table-2-style artifact.
func (r *ResilienceResult) Render() string {
	t := &Table{Header: []string{"Platform", "Recovery s", "Freeze s", "Failover while down"}}
	for _, row := range r.Rows {
		t.Add(string(row.Platform),
			fmt.Sprintf("%.1f ±%.1f", row.Recovery.Mean, row.Recovery.CI95),
			fmt.Sprintf("%.1f ±%.1f", row.Freeze.Mean, row.Freeze.CI95),
			yn(row.Failover))
	}
	faults := fmt.Sprintf("data-server crash %.0fs-%.0fs", resCrashAt.Seconds(), resHealAt.Seconds())
	if r.fromChaos {
		faults = "fault schedule from -chaos"
	}
	return fmt.Sprintf("Resilience: %s, two-user session\n%s", faults, t.String())
}
