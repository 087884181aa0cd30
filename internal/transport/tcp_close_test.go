package transport

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
)

// closeReason returns the reason in s's close record of the one connection
// it has closed, failing unless it has closed exactly one.
func closeReason(t *testing.T, s *Stack) string {
	t.Helper()
	if len(s.closedConns) != 1 {
		t.Fatalf("%s has %d close records, want 1", s.Host.ID, len(s.closedConns))
	}
	return s.closedConns[0].CloseReason
}

// TestTCPConnectTimeoutFast: a SYN into silence must give up after the
// handshake retry budget (~1 minute of virtual time), not the full
// data-path exponential-backoff schedule (~half an hour), and must report
// the distinct "connect timeout" reason plus its abort-cause counter.
func TestTCPConnectTimeoutFast(t *testing.T) {
	r := newRig(t)
	// Port 9999 has no listener and the stack sends no RST: pure silence,
	// exactly what a crashed server looks like.
	c := r.sa.DialTCP(packet.Endpoint{Addr: r.b.Addr, Port: 9999})
	r.s.RunUntil(2 * time.Minute)
	if c.State() != StateClosed {
		t.Fatalf("state = %v after 2 min of silence, want closed", c.State())
	}
	if reason := closeReason(t, r.sa); reason != "connect timeout" {
		t.Fatalf("close reason = %q, want \"connect timeout\"", reason)
	}
	r.net.FlushMetrics() // a lab's counts reach the registry at teardown
	closedAt := r.net.Metrics.Snapshot()
	if got := closedAt.Counter("transport.connect_timeouts"); got != 1 {
		t.Fatalf("transport.connect_timeouts = %d, want 1", got)
	}
	if got := closedAt.Counter("transport.conns_aborted"); got != 1 {
		t.Fatalf("transport.conns_aborted = %d, want 1", got)
	}
}

// TestTCPEstablishedKeepsFullRetryBudget: mid-stream loss must still get the
// long maxRetries schedule — the handshake cap must not leak into
// established connections.
func TestTCPEstablishedKeepsFullRetryBudget(t *testing.T) {
	r := newRig(t)
	client, _ := dialPair(t, r)
	r.a.UpNetem = &netsim.Netem{Loss: 1.0, TCPOnly: true}
	client.Send([]byte("doomed"))
	// The handshake budget would kill it inside ~2 minutes; the established
	// budget keeps retrying far longer.
	r.s.RunUntil(r.s.Now() + 5*time.Minute)
	if client.State() == StateClosed {
		t.Fatalf("established conn closed after only 5 min (reason %q): handshake cap leaked", closeReason(t, r.sa))
	}
	r.s.RunUntil(r.s.Now() + 40*time.Minute)
	if client.State() != StateClosed {
		t.Fatal("established conn never hit the retry limit")
	}
	if reason := closeReason(t, r.sa); reason != "too many retransmissions" {
		t.Fatalf("close reason = %q, want \"too many retransmissions\"", reason)
	}
}

// TestCloseNilsBuffers: close must drop the send buffer and reassembly map
// so a dead conn stops pinning payload memory for the rest of the cell.
func TestCloseNilsBuffers(t *testing.T) {
	r := newRig(t)
	client, server := dialPair(t, r)
	// Strand bytes in the client's send buffer (nothing gets through), and
	// force an out-of-order segment into the server's reassembly map by
	// injecting a beyond-rcvNxt data packet directly.
	r.a.UpNetem = &netsim.Netem{Loss: 1.0, TCPOnly: true}
	client.Send(bytes.Repeat([]byte("x"), 64*1024))
	server.ooo[server.rcvNxt+5000] = []byte("stranded")
	r.s.RunUntil(r.s.Now() + 2*time.Second)
	if len(client.sendBuf) == 0 {
		t.Fatal("precondition: client send buffer empty")
	}
	client.Close()
	server.Close()
	if client.sendBuf != nil || client.ooo != nil {
		t.Fatal("client close left sendBuf/ooo populated")
	}
	if server.sendBuf != nil || server.ooo != nil {
		t.Fatal("server close left sendBuf/ooo populated")
	}
}

// TestCloseReleasesBufferMemory is the alloc-based regression: closed conns
// whose *Conn pointers are still referenced (callbacks, logs) must not keep
// megabytes of payload reachable.
func TestCloseReleasesBufferMemory(t *testing.T) {
	r := newRig(t)
	// Block the uplink so sent payloads stay buffered until close.
	const conns, payload = 16, 1 << 20
	held := make([]*Conn, 0, conns)
	r.sb.ListenTCP(443, func(*Conn) {})
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()
	for i := 0; i < conns; i++ {
		c := r.sa.DialTCP(packet.Endpoint{Addr: r.b.Addr, Port: 443})
		r.s.RunUntil(r.s.Now() + time.Second)
		r.a.UpNetem = &netsim.Netem{Loss: 1.0, TCPOnly: true}
		c.Send(make([]byte, payload))
		r.s.RunUntil(r.s.Now() + time.Second)
		c.Close()
		r.a.UpNetem = nil
		held = append(held, c)
	}
	grown := heap()
	if grown > base+(conns*payload)/4 {
		t.Fatalf("heap grew %d bytes across %d closed 1 MB conns: close() pins payload memory", grown-base, conns)
	}
	runtime.KeepAlive(held)
}

// TestAuditConnsContinuity checks the audit snapshot arithmetic on a live
// transfer and on closed conns.
func TestAuditConnsContinuity(t *testing.T) {
	r := newRig(t)
	client, server := dialPair(t, r)
	msg := bytes.Repeat([]byte("z"), 25*1000)
	server.OnData = func([]byte) {}
	client.Send(msg)
	r.s.RunUntil(r.s.Now() + 20*time.Second)

	ca, sa := client.audit(""), server.audit("")
	if ca.StreamSent != int64(len(msg)) {
		t.Fatalf("client StreamSent = %d, want %d", ca.StreamSent, len(msg))
	}
	if ca.StreamAcked != int64(len(msg)) {
		t.Fatalf("client StreamAcked = %d, want %d", ca.StreamAcked, len(msg))
	}
	if sa.StreamRecv != int64(len(msg)) {
		t.Fatalf("server StreamRecv = %d, want %d", sa.StreamRecv, len(msg))
	}
	if sa.OOOSegs != 0 || sa.OOOPastRcv != 0 {
		t.Fatalf("server reassembly not drained: %+v", sa)
	}
	// Prefix property both ways.
	if sa.StreamRecv > ca.StreamSent || ca.StreamRecv > sa.StreamSent {
		t.Fatalf("delivered bytes exceed sent bytes: %+v / %+v", ca, sa)
	}

	client.Close()
	audits := r.sa.AuditConns()
	if len(audits) != 1 {
		t.Fatalf("client stack audits = %d, want 1", len(audits))
	}
	if audits[0].CloseReason != "closed by application" {
		t.Fatalf("closed audit reason = %q", audits[0].CloseReason)
	}
	if audits[0].StreamSent != int64(len(msg)) {
		t.Fatalf("closed audit StreamSent = %d, want %d", audits[0].StreamSent, len(msg))
	}
}

// TestAuditStreamSentSurvivesRewind: the go-back-N rewind moves sndNxt
// backwards; the unique-bytes high-water mark must not shrink with it.
func TestAuditStreamSentSurvivesRewind(t *testing.T) {
	r := newRig(t)
	client, server := dialPair(t, r)
	server.OnData = func([]byte) {}
	r.a.UpNetem = &netsim.Netem{Loss: 0.3, TCPOnly: true}
	msg := make([]byte, 40*1000)
	client.Send(msg)
	r.s.RunUntil(r.s.Now() + 120*time.Second)
	if r.sa.counts.retransmits == 0 {
		t.Fatal("precondition: no retransmissions under 30% loss")
	}
	a := client.audit("")
	if a.StreamSent != int64(len(msg)) {
		t.Fatalf("StreamSent = %d after lossy transfer, want %d", a.StreamSent, len(msg))
	}
	if got := server.audit("").StreamRecv; got != int64(len(msg)) {
		t.Fatalf("server StreamRecv = %d, want %d", got, len(msg))
	}
}
