package transport

import (
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
)

// TestTCPSegmentAllocBound: on a warmed connection, a 10-segment message
// allocates at most once — the send buffer's growth for the message. The
// data segments and the ACKs that answer them allocate nothing: the fabric
// copies their headers, so the Packet and TCP literals in sendSeg, pump and
// receive stay on the stack.
func TestTCPSegmentAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc bound only holds without -race")
	}
	r := newRig(t)
	client, server := dialPair(t, r)
	got := 0
	server.OnData = func(b []byte) { got += len(b) }
	const segs = 10
	msg := make([]byte, segs*MSS)
	send := func() {
		client.Send(msg)
		r.s.Run()
	}
	for i := 0; i < 8; i++ { // open the window and warm the pools
		send()
	}
	got = 0
	sentA, sentB := r.a.Up.OfferedPackets, r.b.Up.OfferedPackets
	const runs = 50
	if allocs := testing.AllocsPerRun(runs, send); allocs > 1 {
		t.Fatalf("a %d-segment message allocates %.2f, want <= 1", segs, allocs)
	}
	// AllocsPerRun adds a warm-up run. Every message must arrive whole, as
	// at least segs data segments answered by at least segs ACKs.
	if want := (runs + 1) * len(msg); got != want {
		t.Fatalf("delivered %d bytes, want %d", got, want)
	}
	if data, acks := r.a.Up.OfferedPackets-sentA, r.b.Up.OfferedPackets-sentB; data < (runs+1)*segs || acks < (runs+1)*segs {
		t.Fatalf("sent %d data segments and %d ACKs for %d messages, want >= %d each", data, acks, runs+1, (runs+1)*segs)
	}
}

// TestUDPSendToAllocFree: a warmed UDPSocket.SendTo → deliver round trip
// allocates nothing.
func TestUDPSendToAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc bound only holds without -race")
	}
	r := newRig(t)
	srv, err := r.sb.BindUDP(9000)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	srv.OnRecv = func(src packet.Endpoint, payload []byte) { got += len(payload) }
	cli, err := r.sa.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	dst := packet.Endpoint{Addr: r.b.Addr, Port: srv.Port}
	payload := []byte("avatar-update-avatar-update-avat")
	send := func() {
		cli.SendTo(dst, payload)
		r.s.Run()
	}
	for i := 0; i < 64; i++ {
		send()
	}
	got = 0
	const runs = 200
	if allocs := testing.AllocsPerRun(runs, send); allocs != 0 {
		t.Fatalf("SendTo→deliver allocates %.2f per datagram, want 0", allocs)
	}
	if want := (runs + 1) * len(payload); got != want {
		t.Fatalf("delivered %d bytes, want %d", got, want)
	}
}

// TestStreamAllocBound: a 22 MiB Stream through a lossy path delivers every
// byte in order and never makes a send array: pump and retransmitHead read
// each segment, retransmissions included, into the stack's scratch. The
// pattern is not zero, so a segment read from the wrong offset would show.
// A Send of the same 22 MiB grows the send buffer past 22 MiB.
func TestStreamAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc bound only holds without -race")
	}
	r := newRig(t)
	client, server := dialPair(t, r)
	r.b.UpNetem = &netsim.Netem{Loss: 0.02}
	const n, chunk = 22 << 20, 4125
	pattern := func(i int) byte { return byte(i % 251) }
	got := 0
	client.OnData = func(b []byte) {
		for j, c := range b {
			if c != pattern(got+j) {
				t.Fatalf("stream byte %d = %d, want %d", got+j, c, pattern(got+j))
			}
		}
		got += len(b)
		if server.sendMem != nil {
			t.Fatalf("the stream made a %d-byte send array, want none", cap(server.sendMem))
		}
	}
	server.Stream(n, chunk, func(dst []byte, off int) {
		for i := range dst {
			dst[i] = pattern(off + i)
		}
	})
	r.s.RunUntil(r.s.Now() + 10*time.Minute)
	if got != n {
		t.Fatalf("delivered %d of %d bytes", got, n)
	}
	if r.sb.counts.retransmits == 0 {
		t.Fatal("no retransmissions: the path was not lossy")
	}
	if server.sendMem != nil {
		t.Fatalf("the stream made a %d-byte send array, want none", cap(server.sendMem))
	}
	if server.Buffered() != 0 || server.read != nil {
		t.Fatalf("after the stream: %d bytes buffered, read kept: %v", server.Buffered(), server.read != nil)
	}
}
