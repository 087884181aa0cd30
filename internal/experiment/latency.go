package experiment

import (
	"fmt"
	"strings"
	"time"

	"github.com/svrlab/svrlab/internal/platform"
	"github.com/svrlab/svrlab/internal/stats"
)

// LatencyBreakdown is one platform's Table 4 row (all values milliseconds).
type LatencyBreakdown struct {
	Platform platform.Name
	Private  bool
	E2E      stats.Summary
	Sender   stats.Summary
	Receiver stats.Summary
	Server   stats.Summary
	Network  stats.Summary
	Samples  int
}

// Table4Result reproduces paper Table 4 (plus the private Hubs row).
type Table4Result struct {
	Rows []LatencyBreakdown
}

// Table4 measures the end-to-end action latency on each platform with the
// paper's method: trigger an action on U1, record frame-accurate display on
// U2, synchronize the two headset clocks through the AP, and break the path
// down with trace timestamps.
func Table4(e Env) *Table4Result {
	repeats := e.repeatsOr(20)
	// One cell per platform row plus the private-Hubs row (Hubs*), each its
	// own Lab, fanned out and collected in the paper's row order. Cell labels
	// are derived from the row, not the worker, so trace exports stay
	// byte-identical at any worker count.
	all := platform.All()
	rows := cells(e, len(all)+1, func(i int) LatencyBreakdown {
		if i < len(all) {
			return measureLatency(e, "table4/"+string(all[i].Name), all[i].Name, 2, repeats, e.Seed, false)
		}
		return measureLatency(e, "table4/"+string(platform.Hubs)+"*", platform.Hubs, 2, repeats, e.Seed^0x9a, true)
	})
	return &Table4Result{Rows: rows}
}

// measureLatency runs `repeats` marked actions in an n-user event and
// decomposes the latency. Phase markers carry explicit future timestamps so
// tracing never touches the scheduler (traced and untraced runs stay
// byte-identical).
func measureLatency(e Env, label string, name platform.Name, n, repeats int, seed int64, private bool) LatencyBreakdown {
	l := e.lab(label, seed)
	defer l.MustConserve()
	if private {
		l.Dep.DeployPrivateHubs(platform.SiteUSEast)
	}
	l.Trace().Phase(0, "launch")
	l.Trace().Phase(time.Second, "join")
	l.Trace().Phase(2*time.Second, "arrange")
	l.Trace().Phase(10*time.Second, "actions")
	cs := l.Spawn(name, n, SpawnOpts{Room: "lat"})
	l.Sched.At(2*time.Second, func() { arrangeCircle(cs) })

	var ids []uint32
	for i := 0; i < repeats; i++ {
		at := 10*time.Second + time.Duration(i)*2*time.Second
		l.Sched.At(at, func() { ids = append(ids, cs[0].PerformAction()) })
	}
	l.Sched.RunUntil(10*time.Second + time.Duration(repeats)*2*time.Second + 5*time.Second)
	b := breakdown(l, cs[0], cs[1], ids) // the U1→U2 path, as in the paper
	b.Platform, b.Private = name, private
	return b
}

// breakdown is the Table 4 timestamp algebra: it synchronizes u1's and
// u2's headset clocks through the AP (§7), in that order, and splits the
// latency of every action in ids that u2 displayed. A traced lab also
// records the result as a phase marker, so the cell's trace carries the
// row it explains however many action stamps its ring evicted.
func breakdown(l *Lab, u1, u2 *platform.Client, ids []uint32) LatencyBreakdown {
	off1 := u1.MeasureClockOffset()
	off2 := u2.MeasureClockOffset()
	var e2e, snd, rcv, srv, net []float64
	for _, id := range ids {
		tr := l.Dep.Trace(id)
		rt := tr.Receiver(u2.User)
		if !rt.Displayed {
			continue
		}
		trigger := tr.TriggeredAtLocal - off1
		display := rt.DisplayedAtLocal - off2
		toMs := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		e2e = append(e2e, toMs(display-trigger))
		snd = append(snd, toMs(tr.SentAt-trigger))
		srv = append(srv, toMs(tr.ServerOutAt-tr.ServerInAt))
		rcv = append(rcv, toMs(display-rt.ReceivedAt))
		net = append(net, toMs((tr.ServerInAt-tr.SentAt)+(rt.ReceivedAt-tr.ServerOutAt)))
	}
	b := LatencyBreakdown{
		E2E:      stats.Summarize(e2e),
		Sender:   stats.Summarize(snd),
		Receiver: stats.Summarize(rcv),
		Server:   stats.Summarize(srv),
		Network:  stats.Summarize(net),
		Samples:  len(e2e),
	}
	if tr := l.Trace(); tr != nil {
		tr.Phase(l.Sched.Now(), fmt.Sprintf("breakdown: %d of %d actions displayed; e2e %s ms = sender %s + network %s + server %s + receiver %s",
			b.Samples, len(ids), msf(b.E2E.Mean), msf(b.Sender.Mean), msf(b.Network.Mean), msf(b.Server.Mean), msf(b.Receiver.Mean)))
	}
	return b
}

// Render prints the Table 4 artifact.
func (r *Table4Result) Render() string {
	t := &Table{Header: []string{"Platform", "E2E (ms)", "Sender", "Receiver", "Server", "Network", "n"}}
	for _, row := range r.Rows {
		name := string(row.Platform)
		if row.Private {
			name += "*"
		}
		cell := func(s stats.Summary) string { return fmt.Sprintf("%s/%s", msf(s.Mean), msf(s.Std)) }
		t.Add(name, cell(row.E2E), cell(row.Sender), cell(row.Receiver), cell(row.Server), cell(row.Network),
			fmt.Sprintf("%d", row.Samples))
	}
	return "Table 4: end-to-end latency and breakdown (avg/std ms; * = private server)\n" + t.String()
}

// Fig11Result is the latency-scalability artifact: E2E latency between U1
// and U2 as more users join.
type Fig11Result struct {
	Platform platform.Name
	Users    []int
	E2E      []stats.Summary
}

// Fig11 measures E2E latency at event sizes 2-7 (paper Figure 11), one
// worker-pool cell per event size. The paper default is Rec Room.
func Fig11(e Env) *Fig11Result {
	name, repeats := e.platformOr(platform.RecRoom), e.repeatsOr(10)
	const minUsers, maxUsers = 2, 7
	rows := cells(e, maxUsers-minUsers+1, func(i int) LatencyBreakdown {
		n := minUsers + i
		return measureLatency(e, fmt.Sprintf("fig11/%s/n%d", name, n), name, n, repeats, e.Seed+int64(n)*1337, false)
	})
	res := &Fig11Result{Platform: name}
	for i, row := range rows {
		res.Users = append(res.Users, minUsers+i)
		res.E2E = append(res.E2E, row.E2E)
	}
	return res
}

// Deltas returns the added latency per additional user (the paper notes the
// delta itself grows).
func (r *Fig11Result) Deltas() []float64 {
	var out []float64
	for i := 1; i < len(r.E2E); i++ {
		out = append(out, r.E2E[i].Mean-r.E2E[i-1].Mean)
	}
	return out
}

// Render prints the Figure 11 artifact.
func (r *Fig11Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11 (%s): E2E latency vs users\n", r.Platform)
	for i, n := range r.Users {
		fmt.Fprintf(&b, "  users=%d  e2e=%s ±%s ms\n", n, msf(r.E2E[i].Mean), msf(r.E2E[i].CI95))
	}
	fmt.Fprintf(&b, "per-user deltas (ms):")
	for _, d := range r.Deltas() {
		fmt.Fprintf(&b, " %.1f", d)
	}
	b.WriteString("\n")
	return b.String()
}
