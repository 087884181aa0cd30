package experiment

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/platform"
	"github.com/svrlab/svrlab/internal/trace"
)

// TestTraceIsViewOfRigLedger: the action stamps a traced two-user lab
// records are the rig's ledger (platform.ActionTrace), stamp for stamp. The
// send, server_in and server_out stamps and u2's recv are the ledger's
// simulation-clock values; the trigger and display stamps are the
// headset-local values less that headset's clock offset.
func TestTraceIsViewOfRigLedger(t *testing.T) {
	l := Env{Trace: trace.NewCollector()}.lab("ledger", 42)
	defer l.MustConserve()
	cs := l.Spawn(platform.RecRoom, 2, SpawnOpts{Room: "lat"})
	u1, u2 := cs[0], cs[1]
	l.Sched.At(2*time.Second, func() { arrangeCircle(cs) })
	var ids []uint32
	for i := 0; i < 6; i++ {
		l.Sched.At(10*time.Second+time.Duration(i)*2*time.Second, func() { ids = append(ids, u1.PerformAction()) })
	}
	l.Sched.RunUntil(27 * time.Second)
	off1, off2 := u1.ReadClock()-l.Sched.Now(), u2.ReadClock()-l.Sched.Now()

	// stamps[id]["name@track"] is the one stamp the trace holds for it.
	stamps := map[uint32]map[string]time.Duration{}
	var held uint64
	l.Trace().Each(func(ev trace.Event) {
		if ev.Kind != trace.KindAction {
			return
		}
		held++
		id, key := uint32(ev.Span), ev.Name+"@"+ev.Track
		if stamps[id] == nil {
			stamps[id] = map[string]time.Duration{}
		}
		if _, dup := stamps[id][key]; dup {
			t.Errorf("action %d: %s stamped twice", id, key)
		}
		stamps[id][key] = ev.At
	})
	if n := l.Trace().Count(trace.KindAction); held != n || n == 0 {
		t.Fatalf("the trace holds %d of %d action stamps", held, n)
	}
	if len(stamps) != len(ids) {
		t.Fatalf("the trace stamps %d actions, the rig ran %d", len(stamps), len(ids))
	}

	for _, id := range ids {
		tr, got := l.Dep.Trace(id), stamps[id]
		rt := tr.Receiver(u2.User)
		if !rt.Displayed {
			t.Fatalf("action %d was not displayed", id)
		}
		// The server stamps sit on the server host's track; find them by name.
		server := func(name string) (at time.Duration) {
			n := 0
			for key, stamp := range got {
				if strings.HasPrefix(key, name+"@") {
					at, n = stamp, n+1
				}
			}
			if n != 1 {
				t.Fatalf("action %d: %d %s stamps, want 1", id, n, name)
			}
			return at
		}
		for _, c := range []struct {
			stamp       string
			trace, rigs time.Duration
		}{
			{"trigger", got["trigger@"+u1.Host.ID] + off1, tr.TriggeredAtLocal},
			{"send", got["send@"+u1.Host.ID], tr.SentAt},
			{"server_in", server("server_in"), tr.ServerInAt},
			{"server_out", server("server_out"), tr.ServerOutAt},
			{"recv", got["recv@"+u2.Host.ID], rt.ReceivedAt},
			{"display", got["display@"+u2.Host.ID] + off2, rt.DisplayedAtLocal},
		} {
			if c.trace != c.rigs {
				t.Errorf("action %d: the trace's %s reads %v, the rig's %v", id, c.stamp, c.trace, c.rigs)
			}
		}
	}
}

// TestTable4TraceCarriesBreakdown: each cell of a traced Table 4 holds
// exactly one breakdown marker, and it reads the cell's artifact row.
func TestTable4TraceCarriesBreakdown(t *testing.T) {
	const repeats = 4
	c := trace.NewCollector()
	res := Table4(Env{Seed: 42, Repeats: repeats, Workers: 2, Trace: c})
	for _, row := range res.Rows {
		name := string(row.Platform)
		if row.Private {
			name += "*"
		}
		t.Run(name, func(t *testing.T) {
			var got []string
			c.Lookup("table4/" + name).Each(func(ev trace.Event) {
				if ev.Kind == trace.KindPhase && strings.HasPrefix(ev.Name, "breakdown:") {
					got = append(got, ev.Name)
				}
			})
			want := fmt.Sprintf("breakdown: %d of %d actions displayed; e2e %.1f ms = sender %.1f + network %.1f + server %.1f + receiver %.1f",
				row.Samples, repeats, row.E2E.Mean, row.Sender.Mean, row.Network.Mean, row.Server.Mean, row.Receiver.Mean)
			if len(got) != 1 || got[0] != want {
				t.Errorf("breakdown markers %q, want one %q", got, want)
			}
		})
	}
}
