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
	n := netsim.New(s, 7)
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
	srv.OnRecv = func(src packet.Endpoint, payload []byte) { got, from = payload, src }
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
	r.sa.ICMPHandler = func(p *packet.Packet) { gotICMP = p }
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

func TestUDPCloseStopsDelivery(t *testing.T) {
	r := newRig(t)
	srv, _ := r.sb.BindUDP(9000)
	count := 0
	srv.OnRecv = func(packet.Endpoint, []byte) { count++ }
	cli, _ := r.sa.BindUDP(0)
	cli.SendTo(packet.Endpoint{Addr: r.b.Addr, Port: 9000}, []byte("1"))
	r.s.Run()
	srv.Close()
	cli.SendTo(packet.Endpoint{Addr: r.b.Addr, Port: 9000}, []byte("2"))
	r.s.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	// Closed client socket refuses to send.
	cli.Close()
	cli.SendTo(packet.Endpoint{Addr: r.b.Addr, Port: 9000}, []byte("3"))
	r.s.Run()
}

func TestICMPEchoReply(t *testing.T) {
	r := newRig(t)
	var reply *packet.Packet
	r.sa.ICMPHandler = func(p *packet.Packet) {
		if p.ICMP.Type == packet.ICMPEchoReply {
			reply = p
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
	if client.SRTT() <= 0 {
		t.Fatal("no RTT samples taken")
	}
}

// TestGrowReservesOnceAndKeepsInFlightBytes: after Grow(n), Sends totalling
// n bytes append into one backing array. Grow must move the buffer, never
// compact it in place: segments in flight alias sendBuf, so once an ACK has
// trimmed its front, compacting would overwrite their bytes before delivery.
func TestGrowReservesOnceAndKeepsInFlightBytes(t *testing.T) {
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
	client.Grow(64 * 1024)
	moved := &client.sendBuf[0]
	rest := bytes.Repeat([]byte{0xff}, 1024)
	for i := 0; i < 64; i++ {
		client.Send(rest)
	}
	if &client.sendBuf[0] != moved {
		t.Fatal("Sends within the reservation reallocated the send buffer")
	}
	r.s.RunUntil(r.s.Now() + 10*time.Second)
	want := append(append([]byte(nil), first...), bytes.Repeat([]byte{0xff}, 64*1024)...)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("received %d bytes, want %d intact", got.Len(), len(want))
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
	r.a.UpNetem = &netsim.Netem{Loss: 0.2, Filter: netsim.FilterTCP}
	msg := bytes.Repeat([]byte("x"), 50*1000)
	client.Send(msg)
	r.s.RunUntil(r.s.Now() + 120*time.Second)
	if got.Len() != len(msg) {
		t.Fatalf("received %d of %d bytes through 20%% loss", got.Len(), len(msg))
	}
	if client.Retransmits == 0 {
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
	r.a.UpNetem = &netsim.Netem{Loss: 0.3, Filter: netsim.FilterTCP}
	client.Send(msg)
	r.s.RunUntil(r.s.Now() + 120*time.Second)
	if !bytes.Equal(got.Bytes(), msg) {
		t.Fatalf("byte stream corrupted: %d/%d bytes", got.Len(), len(msg))
	}
}

func TestTCPStallsUnder100PercentLossThenDies(t *testing.T) {
	r := newRig(t)
	client, _ := dialPair(t, r)
	closed := ""
	client.OnClose = func(reason string) { closed = reason }
	r.a.UpNetem = &netsim.Netem{Loss: 1.0, Filter: netsim.FilterTCP}
	client.Send([]byte("doomed"))
	r.s.RunUntil(r.s.Now() + 30*time.Minute)
	if client.State() != StateClosed {
		t.Fatalf("state = %v after sustained 100%% loss, want closed", client.State())
	}
	if closed == "" {
		t.Fatal("OnClose not invoked")
	}
}

func TestTCPDelayStallsAckAndOnDrainedFires(t *testing.T) {
	// The Fig. 13 mechanism: a large one-way TCP delay postpones the ACK;
	// OnDrained (the Worlds UDP-gate hook) fires only after the delay.
	r := newRig(t)
	client, _ := dialPair(t, r)
	var drainedAt time.Duration
	client.OnDrained = func() { drainedAt = r.s.Now() }
	r.a.UpNetem = &netsim.Netem{Delay: 5 * time.Second, Filter: netsim.FilterTCP}
	start := r.s.Now()
	client.Send([]byte("control-report"))
	r.s.RunUntil(r.s.Now() + 60*time.Second)
	if drainedAt == 0 {
		t.Fatal("OnDrained never fired")
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
	r.a.UpNetem = &netsim.Netem{RateBps: 800_000, Filter: netsim.FilterTCP} // 100 KB/s
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
	calls := 0
	client.OnClose = func(string) { calls++ }
	client.Close()
	client.Close()
	if calls != 1 {
		t.Fatalf("OnClose calls = %d, want 1", calls)
	}
	client.Send([]byte("after close")) // must not panic
}
