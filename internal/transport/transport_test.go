package transport

import (
	"bytes"
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/geo"
	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/simtime"
)

// rig is a two-host testbed with transport stacks attached.
type rig struct {
	net    *netsim.Network
	s      *simtime.Scheduler
	a, b   *netsim.Host
	sa, sb *Stack
}

func newRig(t *testing.T) *rig {
	t.Helper()
	s := simtime.NewScheduler()
	n := netsim.New(s, 7, nil)
	east := n.AddSite("east", geo.Fairfax, packet.MustParseAddr("10.0.0.1"))
	west := n.AddSite("west", geo.SanJose, packet.MustParseAddr("10.2.0.1"))
	n.Connect(east, west)
	a := n.AddHost("a", east, packet.MustParseAddr("10.0.0.2"), netsim.WiFiAccess())
	b := n.AddHost("b", west, packet.MustParseAddr("10.2.0.2"), netsim.DatacenterAccess())
	return &rig{net: n, s: s, a: a, b: b, sa: NewStack(n, a), sb: NewStack(n, b)}
}

func TestUDPSendReceive(t *testing.T) {
	r := newRig(t)
	srv, err := r.sb.BindUDP(9000)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	var from packet.Endpoint
	srv.OnRecv = func(src packet.Endpoint, payload []byte) { got, from = bytes.Clone(payload), src }
	cli, err := r.sa.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	cli.SendTo(packet.Endpoint{Addr: r.b.Addr, Port: 9000}, []byte("datagram"))
	r.s.Run()
	if string(got) != "datagram" {
		t.Fatalf("payload = %q", got)
	}
	if from.Addr != r.a.Addr || from.Port != cli.Port {
		t.Fatalf("from = %v", from)
	}
}

func TestUDPPortConflict(t *testing.T) {
	r := newRig(t)
	if _, err := r.sa.BindUDP(5000); err != nil {
		t.Fatal(err)
	}
	if _, err := r.sa.BindUDP(5000); err == nil {
		t.Fatal("duplicate bind accepted")
	}
}

func TestUDPClosedPortGeneratesUnreachable(t *testing.T) {
	r := newRig(t)
	var gotICMP *packet.Packet
	r.sa.ICMPHandler = func(p *packet.Packet) { gotICMP = p.Clone() }
	cli, _ := r.sa.BindUDP(0)
	cli.SendTo(packet.Endpoint{Addr: r.b.Addr, Port: 4444}, []byte("probe"))
	r.s.Run()
	if gotICMP == nil {
		t.Fatal("no ICMP received")
	}
	if gotICMP.ICMP.Type != packet.ICMPDestUnreach || gotICMP.ICMP.Code != packet.ICMPPortUnreachTag {
		t.Fatalf("ICMP = %+v, want port unreachable", gotICMP.ICMP)
	}
}

func TestICMPEchoReply(t *testing.T) {
	r := newRig(t)
	var reply *packet.Packet
	r.sa.ICMPHandler = func(p *packet.Packet) {
		if p.ICMP.Type == packet.ICMPEchoReply {
			reply = p.Clone()
		}
	}
	r.net.Send(r.a, &packet.Packet{
		IP:   packet.IPv4{Protocol: packet.ProtoICMP, Dst: r.b.Addr},
		ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest, ID: 77, Seq: 5},
	})
	r.s.Run()
	if reply == nil {
		t.Fatal("no echo reply")
	}
	if reply.ICMP.ID != 77 || reply.ICMP.Seq != 5 {
		t.Fatalf("echo reply = %+v", reply.ICMP)
	}
}

func TestICMPEchoDisabled(t *testing.T) {
	r := newRig(t)
	r.sb.EchoReply = false
	got := false
	r.sa.ICMPHandler = func(p *packet.Packet) { got = true }
	r.net.Send(r.a, &packet.Packet{
		IP:   packet.IPv4{Protocol: packet.ProtoICMP, Dst: r.b.Addr},
		ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest, ID: 1, Seq: 1},
	})
	r.s.Run()
	if got {
		t.Fatal("echo reply despite EchoReply=false")
	}
}

// dialPair establishes a TCP connection and returns both endpoints.
func dialPair(t *testing.T, r *rig) (client, server *Conn) {
	t.Helper()
	r.sb.ListenTCP(443, func(c *Conn) { server = c })
	client = r.sa.DialTCP(packet.Endpoint{Addr: r.b.Addr, Port: 443})
	established := false
	client.OnEstablished = func() { established = true }
	r.s.RunUntil(r.s.Now() + 5*time.Second)
	if !established || server == nil {
		t.Fatal("handshake did not complete")
	}
	if client.State() != StateEstablished || server.State() != StateEstablished {
		t.Fatalf("states: %v / %v", client.State(), server.State())
	}
	return client, server
}

func TestTCPHandshakeAndTransfer(t *testing.T) {
	r := newRig(t)
	client, server := dialPair(t, r)
	var got bytes.Buffer
	server.OnData = func(b []byte) { got.Write(b) }
	msg := bytes.Repeat([]byte("0123456789"), 1000) // 10 KB, multiple segments
	client.Send(msg)
	r.s.RunUntil(r.s.Now() + 10*time.Second)
	if !bytes.Equal(got.Bytes(), msg) {
		t.Fatalf("received %d bytes, want %d intact", got.Len(), len(msg))
	}
	if client.Unacked() != 0 {
		t.Fatalf("unacked = %d after idle, want 0", client.Unacked())
	}
	if client.srtt <= 0 {
		t.Fatal("no RTT samples taken")
	}
}

// TestPassiveOpenSendsFromFirstByte: bytes a listener queues from
// OnAccept, before its handshake completes, reach the client whole, and
// the final ACK of the handshake takes none of them off the send buffer.
func TestPassiveOpenSendsFromFirstByte(t *testing.T) {
	r := newRig(t)
	var server *Conn
	r.sb.ListenTCP(443, func(c *Conn) {
		server = c
		c.Send([]byte("0123456789"))
	})
	client := r.sa.DialTCP(packet.Endpoint{Addr: r.b.Addr, Port: 443})
	var got bytes.Buffer
	client.OnData = func(b []byte) { got.Write(b) }
	r.s.RunUntil(5 * time.Second)
	if got.String() != "0123456789" {
		t.Fatalf("client got %q, want \"0123456789\"", got.String())
	}
	if server.Buffered() != 0 || server.Unacked() != 0 {
		t.Fatalf("server holds %d bytes, %d unacked, after the client got them all", server.Buffered(), server.Unacked())
	}
}

// TestSendMovingBufferKeepsInFlightBytes: a Send that outgrows the send
// array while an ACK has trimmed its front and segments are in flight moves
// every unacknowledged byte to the new array, and every byte arrives intact.
func TestSendMovingBufferKeepsInFlightBytes(t *testing.T) {
	r := newRig(t)
	client, server := dialPair(t, r)
	var got bytes.Buffer
	server.OnData = func(b []byte) { got.Write(b) }
	first := make([]byte, 8*MSS)
	for i := range first {
		first[i] = byte(i % 251)
	}
	client.Send(first)
	// Run to the first ACK: the buffer's front is trimmed and the segments
	// that ACK released are in flight.
	for una := client.sndUna; client.sndUna == una; {
		r.s.RunUntil(r.s.Now() + time.Millisecond)
	}
	if client.Unacked() == 0 {
		t.Fatal("no segments in flight after the first ACK")
	}
	acked, array := int(client.sndUna-client.iss-1), cap(client.sendMem)
	rest := bytes.Repeat([]byte{0xff}, 64*1024)
	client.Send(rest)
	if cap(client.sendMem) <= array {
		t.Fatalf("a %d-byte Send kept the %d-byte send array", len(rest), array)
	}
	want := append(append([]byte(nil), first...), rest...)
	if !bytes.Equal(client.sendBuf, want[acked:]) {
		t.Fatalf("the moved send buffer holds %d bytes, want the %d unacknowledged ones", len(client.sendBuf), len(want)-acked)
	}
	r.s.RunUntil(r.s.Now() + 10*time.Second)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("received %d bytes, want %d intact", got.Len(), len(want))
	}
}

// reader returns a Stream read that copies b's bytes from stream offset
// off into dst.
func reader(b []byte) func(dst []byte, off int) {
	return func(dst []byte, off int) { copy(dst, b[off:]) }
}

// unsent is how many of c's stream bytes pump has yet to send, when the
// stream is all c has queued.
func unsent(c *Conn) int { return c.streamLen - c.streamAcked - c.Unacked() }

// onDrain calls fn once c owes nothing after having owed bytes: what the
// Worlds UDP gate polls, Unacked and Buffered, both read zero. The check
// runs after every packet c's host handles, so fn sees the ACK that drains
// the connection. Owing starts when onDrain is called.
func onDrain(h *netsim.Host, c *Conn, fn func()) {
	handle, owing := h.Handler, true
	h.Handler = func(p *packet.Packet) {
		handle(p)
		idle := c.Unacked() == 0 && c.Buffered() == 0
		if owing && idle {
			fn()
		}
		owing = !idle
	}
}

// TestStreamKeepsOrderBehindOwedBytes: a Send or a second Stream queued
// while a stream still owes bytes (some not yet sent, more not yet acked)
// lands after them; Buffered and the audit count the stream's unacked bytes
// as queued, and the connection drains only once they are all delivered.
func TestStreamKeepsOrderBehindOwedBytes(t *testing.T) {
	r := newRig(t)
	client, server := dialPair(t, r)
	var got bytes.Buffer
	server.OnData = func(b []byte) { got.Write(b) }
	part := func(n int, salt byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i%251) ^ salt
		}
		return b
	}
	first, middle, last := part(200_000, 1), part(3_000, 2), part(100_000, 3)
	want := append(append(append([]byte(nil), first...), middle...), last...)
	drained := 0
	onDrain(r.a, client, func() {
		drained++
		if got.Len() != len(want) {
			t.Fatalf("drained with %d of %d bytes delivered", got.Len(), len(want))
		}
	})
	client.Stream(len(first), 1000, reader(first))
	if unsent(client) == 0 {
		t.Fatal("the window never closed: every stream byte was sent")
	}
	if client.Buffered() != len(first) {
		t.Fatalf("Buffered = %d, want %d", client.Buffered(), len(first))
	}
	client.Send(middle)
	client.Stream(len(last), 1000, reader(last))
	if client.Buffered() != len(want) || client.audit("").BufferedBytes != len(want) {
		t.Fatalf("Buffered = %d, audit BufferedBytes = %d, want %d",
			client.Buffered(), client.audit("").BufferedBytes, len(want))
	}
	r.s.RunUntil(r.s.Now() + 30*time.Second)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("received %d bytes, want %d in order", got.Len(), len(want))
	}
	if drained != 1 {
		t.Fatalf("drained %d times, want once", drained)
	}
}

// TestDrainWaitsForOwedBytes: a connection whose stream has bytes not yet
// acked has bytes in flight after every packet the client handles, so an
// ACK always comes to release more of them, and it drains (Unacked and
// Buffered, which the Worlds gate polls, both zero) only once every byte
// is delivered.
func TestDrainWaitsForOwedBytes(t *testing.T) {
	r := newRig(t)
	client, server := dialPair(t, r)
	var got bytes.Buffer
	server.OnData = func(b []byte) { got.Write(b) }
	data := bytes.Repeat([]byte("owed"), 10_000)
	drained := 0
	onDrain(r.a, client, func() {
		drained++
		if got.Len() != len(data) {
			t.Fatalf("drained with %d of %d bytes delivered", got.Len(), len(data))
		}
	})
	handle, owing := r.a.Handler, 0
	r.a.Handler = func(p *packet.Packet) {
		handle(p)
		if owed := client.streamLen - client.streamAcked; owed > 0 {
			owing++
			if client.Unacked() == 0 {
				t.Fatalf("%d stream bytes owed with nothing in flight", owed)
			}
		}
	}
	client.Stream(len(data), MSS, reader(data))
	if unsent(client) == 0 {
		t.Fatal("the window never closed: every stream byte was sent")
	}
	if client.Buffered() != len(data) {
		t.Fatalf("Buffered = %d, want all %d bytes: the window in flight and the owed rest", client.Buffered(), len(data))
	}
	r.s.RunUntil(r.s.Now() + 30*time.Second)
	if !bytes.Equal(got.Bytes(), data) || drained != 1 {
		t.Fatalf("received %d of %d bytes, drained %d times", got.Len(), len(data), drained)
	}
	if owing == 0 {
		t.Fatal("the client handled no packet while bytes were owed")
	}
}

func TestTCPBidirectional(t *testing.T) {
	r := newRig(t)
	client, server := dialPair(t, r)
	var cGot, sGot bytes.Buffer
	client.OnData = func(b []byte) { cGot.Write(b) }
	server.OnData = func(b []byte) { sGot.Write(b) }
	client.Send([]byte("request"))
	server.Send([]byte("response"))
	r.s.RunUntil(r.s.Now() + 5*time.Second)
	if sGot.String() != "request" || cGot.String() != "response" {
		t.Fatalf("server got %q, client got %q", sGot.String(), cGot.String())
	}
}

func TestTCPQueuesDataBeforeEstablished(t *testing.T) {
	r := newRig(t)
	var server *Conn
	var got bytes.Buffer
	r.sb.ListenTCP(443, func(c *Conn) {
		server = c
		c.OnData = func(b []byte) { got.Write(b) }
	})
	client := r.sa.DialTCP(packet.Endpoint{Addr: r.b.Addr, Port: 443})
	client.Send([]byte("early")) // before handshake completes
	r.s.RunUntil(5 * time.Second)
	if got.String() != "early" {
		t.Fatalf("server got %q", got.String())
	}
	_ = server
}

func TestTCPRecoversFromLoss(t *testing.T) {
	r := newRig(t)
	client, server := dialPair(t, r)
	var got bytes.Buffer
	server.OnData = func(b []byte) { got.Write(b) }
	// 20% uplink loss on data packets after the handshake.
	r.a.UpNetem = &netsim.Netem{Loss: 0.2, TCPOnly: true}
	msg := bytes.Repeat([]byte("x"), 50*1000)
	client.Send(msg)
	r.s.RunUntil(r.s.Now() + 120*time.Second)
	if got.Len() != len(msg) {
		t.Fatalf("received %d of %d bytes through 20%% loss", got.Len(), len(msg))
	}
	if r.sa.counts.retransmits == 0 {
		t.Fatal("expected retransmissions under loss")
	}
}

func TestTCPReordersOutOfOrderSegments(t *testing.T) {
	// Loss of a middle segment forces out-of-order arrival at the receiver;
	// the reassembly queue must restore byte order.
	r := newRig(t)
	client, server := dialPair(t, r)
	var got bytes.Buffer
	server.OnData = func(b []byte) { got.Write(b) }
	msg := make([]byte, 30*1000)
	for i := range msg {
		msg[i] = byte(i % 251)
	}
	r.a.UpNetem = &netsim.Netem{Loss: 0.3, TCPOnly: true}
	client.Send(msg)
	r.s.RunUntil(r.s.Now() + 120*time.Second)
	if !bytes.Equal(got.Bytes(), msg) {
		t.Fatalf("byte stream corrupted: %d/%d bytes", got.Len(), len(msg))
	}
}

func TestTCPStallsUnder100PercentLossThenDies(t *testing.T) {
	r := newRig(t)
	client, _ := dialPair(t, r)
	r.a.UpNetem = &netsim.Netem{Loss: 1.0, TCPOnly: true}
	client.Send([]byte("doomed"))
	r.s.RunUntil(r.s.Now() + 30*time.Minute)
	if client.State() != StateClosed {
		t.Fatalf("state = %v after sustained 100%% loss, want closed", client.State())
	}
	if got := closeReason(t, r.sa); got != "too many retransmissions" {
		t.Fatalf("close reason = %q, want \"too many retransmissions\"", got)
	}
}

func TestTCPDelayStallsAckAndDrain(t *testing.T) {
	// The Fig. 13 mechanism: a large one-way TCP delay postpones the ACK,
	// so what the Worlds UDP gate polls, Unacked and Buffered, stays
	// non-zero until the delay has passed.
	r := newRig(t)
	client, _ := dialPair(t, r)
	var drainedAt time.Duration
	onDrain(r.a, client, func() { drainedAt = r.s.Now() })
	r.a.UpNetem = &netsim.Netem{Delay: 5 * time.Second, TCPOnly: true}
	start := r.s.Now()
	client.Send([]byte("control-report"))
	r.s.RunUntil(r.s.Now() + 60*time.Second)
	if drainedAt == 0 {
		t.Fatal("the connection never drained")
	}
	wait := drainedAt - start
	if wait < 5*time.Second || wait > 9*time.Second {
		t.Fatalf("drain wait = %v, want ≳5s (the injected delay)", wait)
	}
}

func TestTCPCongestionWindowGrows(t *testing.T) {
	r := newRig(t)
	client, _ := dialPair(t, r)
	initial := client.cwnd
	client.Send(bytes.Repeat([]byte("y"), 100*1000))
	r.s.RunUntil(r.s.Now() + 60*time.Second)
	if client.cwnd <= initial {
		t.Fatalf("cwnd did not grow: %v -> %v", initial, client.cwnd)
	}
}

func TestTCPThroughputRespectsNetemRate(t *testing.T) {
	r := newRig(t)
	client, server := dialPair(t, r)
	var got int
	server.OnData = func(b []byte) { got += len(b) }
	r.a.UpNetem = &netsim.Netem{RateBps: 800_000, TCPOnly: true} // 100 KB/s
	client.Send(make([]byte, 800*1000))
	start := r.s.Now()
	const window = 10.0
	r.s.RunUntil(start + 10*time.Second)
	gotBps := float64(got*8) / window
	if gotBps > 900_000 {
		t.Fatalf("TCP throughput %.0f bps exceeds 800kbps shaper", gotBps)
	}
	// NewReno over a 250 ms tail-drop shaper won't hit line rate — the
	// scaled window overshoots the shallow buffer and go-back-N recovery
	// costs throughput — but it must sustain a workable fraction.
	if gotBps < 120_000 {
		t.Fatalf("TCP throughput %.0f bps too low under shaper", gotBps)
	}
}

func TestTCPSequenceWraparound(t *testing.T) {
	if !seqLT(0xffffff00, 0x00000010) {
		t.Fatal("seqLT fails across wrap")
	}
	if seqLT(0x00000010, 0xffffff00) {
		t.Fatal("seqLT inverted across wrap")
	}
	if !seqLEQ(5, 5) {
		t.Fatal("seqLEQ not reflexive")
	}
}

func TestTCPCloseIsIdempotent(t *testing.T) {
	r := newRig(t)
	client, _ := dialPair(t, r)
	client.Close()
	client.Close() // closeReason fails on a second close record
	if reason := closeReason(t, r.sa); reason != "closed by application" {
		t.Fatalf("close reason = %q, want \"closed by application\"", reason)
	}
	client.Send([]byte("after close")) // must not panic
}
