package secure

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/transport"
)

// tapped is one packet crossing the client host's access point.
type tapped struct {
	at   time.Duration
	dir  netsim.Dir
	wire []byte
}

// wireTrace runs one rig in which send frames each body as a message from
// the client, and (after the handshake) from the server too. With early the
// client sends before the handshake, so the messages queue and flush on
// establishment. up, when set, impairs the server's uplink. It returns
// every packet the client's access point saw.
func wireTrace(t *testing.T, early bool, up *netsim.Netem, bodies [][]byte, send func(s *Session, kind byte, body []byte)) []tapped {
	t.Helper()
	r := newRig(t)
	if up != nil {
		// A fresh copy per rig: a Netem carries its shaper's queue state.
		r.b.UpNetem = &netsim.Netem{Loss: up.Loss, RateBps: up.RateBps}
	}
	var out []tapped
	r.a.Tap(func(at time.Duration, dir netsim.Dir, wire []byte) {
		out = append(out, tapped{at, dir, append([]byte(nil), wire...)})
	})
	if !early {
		r.s.RunUntil(2 * time.Second)
		if r.srv == nil || !r.srv.ready {
			t.Fatal("session not established")
		}
	}
	for _, b := range bodies {
		send(r.cli, MsgRequest, b)
		if !early {
			send(r.srv, MsgResponse, b)
		}
	}
	r.s.RunUntil(20 * time.Second)
	return out
}

// requireSameWire fails at the first packet where got differs from want.
func requireSameWire(t *testing.T, sender string, got, want []tapped) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s put %d packets on the wire, framed Send %d", sender, len(got), len(want))
	}
	for i := range want {
		if got[i].at != want[i].at || got[i].dir != want[i].dir || !bytes.Equal(got[i].wire, want[i].wire) {
			t.Fatalf("packet %d differs: %s %v %v %d bytes, framed Send %v %v %d bytes",
				i, sender, got[i].at, got[i].dir, len(got[i].wire), want[i].at, want[i].dir, len(want[i].wire))
		}
	}
}

// TestSendMsgWireIdenticalToMarshalMsg: SendMsg must put exactly the bytes
// of Send(MarshalMsg(kind, body)) on the wire — same records, same
// segments, same times — and SendZeros(kind, n) exactly those of
// Send(MarshalMsg(kind, make([]byte, n))). Bodies sit around the 4096-byte
// record cut (where the 5-byte message header shifts the boundary), up to
// a 2 MiB body that outgrows the window; they are sent before or after the
// handshake, with the client sending while the server streams, over a clean
// path, 2% and 20% loss on the server's uplink, and a 2 Mbit/s cap on it.
func TestSendMsgWireIdenticalToMarshalMsg(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	lengths := []int{0, 1, 4090, 4091, 4096, 4097, 3*4096 + 7, rng.Intn(8 * 4096), 2 << 20}
	paths := []struct {
		name string
		up   *netsim.Netem
	}{
		{"clean", nil},
		{"loss=2%", &netsim.Netem{Loss: 0.02}},
		{"loss=20%", &netsim.Netem{Loss: 0.2}},
		{"rate=2Mbps", &netsim.Netem{RateBps: 2e6}},
	}
	viaFrame := func(s *Session, kind byte, body []byte) { s.Send(MarshalMsg(kind, body)) }
	viaSendMsg := func(s *Session, kind byte, body []byte) { s.SendMsg(kind, body) }
	viaSendZeros := func(s *Session, kind byte, body []byte) { s.SendZeros(kind, len(body)) }
	for _, early := range []bool{true, false} {
		for _, n := range lengths {
			body := make([]byte, n)
			rng.Read(body)
			zero := make([]byte, n)
			t.Run(fmt.Sprintf("early=%v/len=%d", early, n), func(t *testing.T) {
				for _, p := range paths {
					t.Run(p.name, func(t *testing.T) {
						// Two messages back to back, so a record cut that
						// leaks into the next message would show too.
						bodies := [][]byte{body, body[:n/2]}
						want := wireTrace(t, early, p.up, bodies, viaFrame)
						requireSameWire(t, "SendMsg", wireTrace(t, early, p.up, bodies, viaSendMsg), want)
						zeros := [][]byte{zero, zero[:n/2]}
						want = wireTrace(t, early, p.up, zeros, viaFrame)
						requireSameWire(t, "SendZeros", wireTrace(t, early, p.up, zeros, viaSendZeros), want)
					})
				}
			})
		}
	}
}

// establishedRig returns a rig whose handshake has completed and whose
// scheduler is stopped.
func establishedRig(t *testing.T) *rig {
	t.Helper()
	r := newRig(t)
	r.s.RunUntil(2 * time.Second)
	if r.srv == nil || !r.srv.ready || !r.cli.ready {
		t.Fatal("session not established")
	}
	return r
}

// TestOnRawRecordAllocFree: in steady state, reassembling 4 KiB records
// from 1400-byte TCP segments allocates nothing per record. Each body,
// which OnMsg reads, is copied into a receive buffer the session reuses,
// and each record here holds one message, which OnMsg gets as a view, not
// a copy.
func TestOnRawRecordAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc bound only holds without -race")
	}
	r := establishedRig(t)
	records := 0
	r.srv.OnMsg = func(byte, []byte) { records++ }
	// 56 records of 4125 wire bytes are exactly 165 full segments.
	const perRun = 56
	var stream []byte
	for i := 0; i < perRun; i++ {
		stream = packet.AppendTLSRecord(stream, packet.TLSApplicationData, MarshalMsg(MsgPush, make([]byte, maxRecord-msgHeaderLen)))
	}
	feed := func() {
		for seg := stream; len(seg) > 0; seg = seg[min(len(seg), transport.MSS):] {
			r.srv.onRaw(seg[:min(len(seg), transport.MSS)])
		}
	}
	const runs = 20
	if allocs := testing.AllocsPerRun(runs, feed); allocs != 0 {
		t.Fatalf("onRaw allocates %.2f per %d records, want 0", allocs, perRun)
	}
	if want := (runs + 1) * perRun; records != want { // AllocsPerRun adds a warm-up run
		t.Fatalf("delivered %d records, want %d", records, want)
	}
	if cap(r.srv.rxBuf) > 4*maxRecord {
		t.Fatalf("receive buffer grew to %d bytes, want a few KiB", cap(r.srv.rxBuf))
	}
}

// TestDownloadAllocFree: a session without OnMsg, an asset download's,
// checks and counts each record where it lies in the delivered segment and
// keeps no byte of it, so receiving VRChat's 22 MiB launch download in
// 1,400-byte segments allocates nothing and never makes a receive buffer.
// The segments come from the layout SendZeros streams.
func TestDownloadAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc bound only holds without -race")
	}
	const n = 22 << 20
	wire := wireLen(msgHeaderLen + n)
	seg := make([]byte, transport.MSS)
	s := &Session{}
	feed := func() {
		for off := 0; off < wire; off += len(seg) {
			k := min(len(seg), wire-off)
			zeroRecords(seg[:k], off, MsgResponse, n)
			s.onRaw(seg[:k])
		}
	}
	if allocs := testing.AllocsPerRun(1, feed); allocs != 0 {
		t.Fatalf("receiving a %d-byte download allocates %.2f, want 0", n, allocs)
	}
	// AllocsPerRun adds a warm-up run.
	if want := 2 * (msgHeaderLen + n); s.AppBytesRecv != want || s.badRecords != 0 {
		t.Fatalf("counted %d application bytes and %d bad records, want %d and none", s.AppBytesRecv, s.badRecords, want)
	}
	if cap(s.rxBuf) != 0 || cap(s.msgBuf) != 0 {
		t.Fatalf("receive buffer cap %d, message buffer cap %d, want neither made", cap(s.rxBuf), cap(s.msgBuf))
	}
}

// TestSendMsgAllocBound: SendMsg on an established session allocates at
// most once per message on average: the send buffer's growths, which double
// its array. Records are framed in session scratch, and no message frame is
// built.
func TestSendMsgAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc bound only holds without -race")
	}
	r := establishedRig(t)
	// Fill the congestion window first. With the scheduler stopped no ACK
	// reopens it, so the sends below only queue: the fabric's per-segment
	// allocations stay out of the count.
	r.cli.SendMsg(MsgPush, make([]byte, 16*transport.MSS))
	for _, n := range []int{0, 1, maxRecord, 3*maxRecord + 7, 1 << 20} {
		body := make([]byte, n)
		if allocs := testing.AllocsPerRun(20, func() { r.cli.SendMsg(MsgPush, body) }); allocs > 1 {
			t.Errorf("SendMsg of %d bytes allocates %.2f per message, want <= 1", n, allocs)
		}
	}
}

// TestMsgReaderFeedAllocFree: a session hands each message body to OnMsg as
// a view into its message buffer, and compacts that buffer in place rather
// than re-growing it, so feeding a warm session records that hold messages
// allocates nothing.
func TestMsgReaderFeedAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc bound only holds without -race")
	}
	msgs := 0
	s := &Session{OnMsg: func(byte, []byte) { msgs++ }}
	const perRun = 100
	var stream []byte
	for i := 0; i < perRun; i++ {
		stream = append(stream, MarshalMsg(MsgPush, make([]byte, 300))...)
	}
	wire := appRecords(stream, maxRecord)
	feed := func() {
		for seg := wire; len(seg) > 0; seg = seg[min(len(seg), transport.MSS):] {
			s.onRaw(seg[:min(len(seg), transport.MSS)])
		}
	}
	const runs = 20
	if allocs := testing.AllocsPerRun(runs, feed); allocs != 0 {
		t.Fatalf("reading messages allocates %.2f per %d messages, want 0", allocs, perRun)
	}
	if want := (runs + 1) * perRun; msgs != want {
		t.Fatalf("dispatched %d messages, want %d", msgs, want)
	}
	if cap(s.msgBuf) > 2*maxRecord {
		t.Fatalf("message buffer grew to %d bytes, want a few KiB", cap(s.msgBuf))
	}
}
