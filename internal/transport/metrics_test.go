package transport

import (
	"bytes"
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/netsim"
)

// TestStackFlushMetricsAddsTotals: a lossy transfer gives both stacks
// retransmits, backoffs and a congestion window, and the one flush at
// teardown adds each stack's totals.
func TestStackFlushMetricsAddsTotals(t *testing.T) {
	r := newRig(t)
	client, server := dialPair(t, r)
	server.OnData = func([]byte) {}
	r.a.UpNetem = &netsim.Netem{Loss: 0.3, TCPOnly: true}
	client.Send(bytes.Repeat([]byte("x"), 40*1000))
	r.s.RunUntil(r.s.Now() + 120*time.Second)
	if r.sa.counts.retransmits == 0 || r.sa.counts.rtoBackoffs == 0 {
		t.Fatalf("precondition: %d retransmits and %d backoffs under 30%% loss", r.sa.counts.retransmits, r.sa.counts.rtoBackoffs)
	}
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
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	e, ok := s.Get("transport.cwnd_max_bytes")
	if want := max(r.sa.counts.cwndMax, r.sb.counts.cwndMax); !ok || e.Gauge != want {
		t.Errorf("transport.cwnd_max_bytes = %+v, %v, want %v", e, ok, want)
	}
}

// TestCwndGaugeAbsentUntilNoted: stacks exist from a lab's start, but
// transport.cwnd_max_bytes appears only once a connection has noted a
// window, so a lab that opened no connection lists no gauge for one.
func TestCwndGaugeAbsentUntilNoted(t *testing.T) {
	idle := newRig(t)
	idle.net.FlushMetrics()
	if e, ok := idle.net.Metrics.Snapshot().Get("transport.cwnd_max_bytes"); ok {
		t.Fatalf("idle stacks listed a window gauge: %+v", e)
	}
	r := newRig(t)
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
