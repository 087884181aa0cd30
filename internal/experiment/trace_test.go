package experiment

import (
	"math"
	"testing"

	"github.com/svrlab/svrlab/internal/trace"
)

// TestTraceBreakdownMatchesRig runs a traced Table 4 and recomputes the
// sender/network/server/receiver breakdown from the trace alone: it must
// match the rig's within the rig's clock-synchronization error.
func TestTraceBreakdownMatchesRig(t *testing.T) {
	c := trace.NewCollector()
	traced := Table4(Env{Seed: 42, Repeats: 6, Workers: 2, Trace: c})

	for _, row := range traced.Rows {
		label := "table4/" + string(row.Platform)
		if row.Private {
			label += "*"
		}
		sum, n := trace.SummarizeActions(c.Cell(label))
		if n == 0 {
			t.Fatalf("%s: no complete action spans in trace", label)
		}
		if n != row.Samples {
			t.Errorf("%s: trace has %d action samples, rig has %d", label, n, row.Samples)
		}
		// The rig measures trigger/display through synchronized local clocks
		// (±0.3 ms offset error per headset); the trace records pure virtual
		// time. Server and network segments are offset-free and must agree
		// tightly; clock-adjacent segments within the sync error budget.
		closeTo := func(seg string, got, want, tol float64) {
			if math.Abs(got-want) > tol {
				t.Errorf("%s: trace %s = %.2f ms, rig %.2f ms (tol %.1f)", label, seg, got, want, tol)
			}
		}
		closeTo("server", sum.ServerMs, row.Server.Mean, 0.05)
		closeTo("network", sum.NetworkMs, row.Network.Mean, 0.05)
		closeTo("sender", sum.SenderMs, row.Sender.Mean, 1.5)
		closeTo("receiver", sum.ReceiverMs, row.Receiver.Mean, 1.5)
		closeTo("e2e", sum.E2EMs, row.E2E.Mean, 1.5)
	}
}
