package transport

import (
	"bytes"
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/netsim"
)

// TestStackFlushMetricsAddsGrowthOnce: a lossy transfer gives both stacks
// retransmits, backoffs and a congestion window; each flush adds exactly
// the growth since the previous one, so a second flush with no traffic in
// between leaves the registry as it was and traffic after a flush is
// added once at the next.
func TestStackFlushMetricsAddsGrowthOnce(t *testing.T) {
	r := newRig(t)
	client, server := dialPair(t, r)
	server.OnData = func([]byte) {}
	r.a.UpNetem = &netsim.Netem{Loss: 0.3, Filter: netsim.FilterTCP}
	check := func(when string) {
		t.Helper()
		r.net.FlushMetrics()
		s := r.net.Metrics.Snapshot()
		sum := func(f func(c stackCounts) int64) int64 { return f(r.sa.counts) + f(r.sb.counts) }
		for name, want := range map[string]int64{
			"transport.retransmits":      sum(func(c stackCounts) int64 { return c.retransmits }),
			"transport.fast_retransmits": sum(func(c stackCounts) int64 { return c.fastRetransmits }),
			"transport.rto_backoffs":     sum(func(c stackCounts) int64 { return c.rtoBackoffs }),
			"transport.conns_dialed":     1,
			"transport.conns_accepted":   1,
			"transport.conns_aborted":    0,
		} {
			if got := s.Counter(name); got != want {
				t.Errorf("%s: %s = %d, want %d", when, name, got, want)
			}
		}
		e, ok := s.Get("transport.cwnd_max_bytes")
		if want := max(r.sa.counts.cwndMax, r.sb.counts.cwndMax); !ok || e.Gauge != want {
			t.Errorf("%s: transport.cwnd_max_bytes = %+v, %v, want %v", when, e, ok, want)
		}
		r.net.FlushMetrics()
		if again := r.net.Metrics.Snapshot().String(); again != s.String() {
			t.Fatalf("%s: a second flush changed the registry:\n%s\nthen\n%s", when, s, again)
		}
	}

	client.Send(bytes.Repeat([]byte("x"), 40*1000))
	r.s.RunUntil(r.s.Now() + 120*time.Second)
	if r.sa.counts.retransmits == 0 || r.sa.counts.rtoBackoffs == 0 {
		t.Fatalf("precondition: %d retransmits and %d backoffs under 30%% loss", r.sa.counts.retransmits, r.sa.counts.rtoBackoffs)
	}
	check("after the first transfer")
	before := r.sa.counts.retransmits
	client.Send(bytes.Repeat([]byte("y"), 40*1000))
	r.s.RunUntil(r.s.Now() + 120*time.Second)
	if r.sa.counts.retransmits == before {
		t.Fatal("precondition: the second transfer retransmitted nothing")
	}
	check("after the second transfer")
}

// TestCwndGaugeAbsentUntilNoted: stacks exist from a lab's start, but
// transport.cwnd_max_bytes appears only once a connection has noted a
// window, so a lab that opened no connection lists no gauge for one.
func TestCwndGaugeAbsentUntilNoted(t *testing.T) {
	r := newRig(t)
	r.net.FlushMetrics()
	if e, ok := r.net.Metrics.Snapshot().Get("transport.cwnd_max_bytes"); ok {
		t.Fatalf("idle stacks listed a window gauge: %+v", e)
	}
	client, server := dialPair(t, r)
	server.OnData = func([]byte) {}
	client.Send(bytes.Repeat([]byte("z"), 20*1000))
	r.s.RunUntil(r.s.Now() + 20*time.Second)
	r.net.FlushMetrics()
	e, ok := r.net.Metrics.Snapshot().Get("transport.cwnd_max_bytes")
	if !ok || e.Gauge < client.cwnd {
		t.Fatalf("window gauge after a transfer = %+v, %v, want at least %v", e, ok, client.cwnd)
	}
}
