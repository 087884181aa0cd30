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
// establishment. It returns every packet the client's access point saw.
func wireTrace(t *testing.T, early bool, bodies [][]byte, send func(s *Session, kind byte, body []byte)) []tapped {
	t.Helper()
	r := newRig(t)
	var out []tapped
	r.a.Tap(func(at time.Duration, dir netsim.Dir, wire []byte) {
		out = append(out, tapped{at, dir, append([]byte(nil), wire...)})
	})
	if !early {
		r.s.RunUntil(2 * time.Second)
		if r.srv == nil || !r.srv.Established() {
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

// TestSendMsgWireIdenticalToMarshalMsg: SendMsg must put exactly the bytes
// of Send(MarshalMsg(kind, body)) on the wire — same records, same
// segments, same times — for bodies around the 4096-byte record cut (where
// the 5-byte message header shifts the boundary), whether sent before or
// after the handshake.
func TestSendMsgWireIdenticalToMarshalMsg(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	lengths := []int{0, 1, 4090, 4091, 4096, 4097, 3*4096 + 7, rng.Intn(8 * 4096)}
	viaFrame := func(s *Session, kind byte, body []byte) { s.Send(MarshalMsg(kind, body)) }
	viaSendMsg := func(s *Session, kind byte, body []byte) { s.SendMsg(kind, body) }
	for _, early := range []bool{true, false} {
		for _, n := range lengths {
			t.Run(fmt.Sprintf("early=%v/len=%d", early, n), func(t *testing.T) {
				body := make([]byte, n)
				rng.Read(body)
				// Two messages back to back, so a record cut that leaks
				// into the next message would show too.
				bodies := [][]byte{body, body[:n/2]}
				want := wireTrace(t, early, bodies, viaFrame)
				got := wireTrace(t, early, bodies, viaSendMsg)
				if len(got) != len(want) {
					t.Fatalf("SendMsg put %d packets on the wire, framed Send %d", len(got), len(want))
				}
				for i := range want {
					if got[i].at != want[i].at || got[i].dir != want[i].dir || !bytes.Equal(got[i].wire, want[i].wire) {
						t.Fatalf("packet %d differs: SendMsg %v %v %d bytes, framed Send %v %v %d bytes",
							i, got[i].at, got[i].dir, len(got[i].wire), want[i].at, want[i].dir, len(want[i].wire))
					}
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
	if r.srv == nil || !r.srv.Established() || !r.cli.Established() {
		t.Fatal("session not established")
	}
	return r
}

// TestOnRawRecordAllocFree: in steady state, reassembling 4 KiB records
// from 1400-byte TCP segments allocates nothing per record. The receive
// buffer is compacted in place and OnData gets a view, not a copy.
func TestOnRawRecordAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc bound only holds without -race")
	}
	r := establishedRig(t)
	records := 0
	r.srv.OnData = func([]byte) { records++ }
	// 56 records of 4125 wire bytes are exactly 165 full segments.
	const perRun = 56
	var stream []byte
	for i := 0; i < perRun; i++ {
		stream = packet.AppendTLSRecord(stream, packet.TLSApplicationData, make([]byte, maxRecord))
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

// TestSendMsgAllocBound: SendMsg on an established session allocates at
// most once per message — the send buffer's single growth. Records are
// framed in session scratch, and no message frame is built.
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

// TestMsgReaderFeedAllocBound: MsgReader allocates only each message's
// body copy; its buffer is compacted in place rather than re-grown.
func TestMsgReaderFeedAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc bound only holds without -race")
	}
	msgs := 0
	r := &MsgReader{OnMsg: func(byte, []byte) { msgs++ }}
	const perRun = 100
	var stream []byte
	for i := 0; i < perRun; i++ {
		stream = append(stream, MarshalMsg(MsgPush, make([]byte, 300))...)
	}
	feed := func() {
		for rec := stream; len(rec) > 0; rec = rec[min(len(rec), maxRecord):] {
			r.Feed(rec[:min(len(rec), maxRecord)])
		}
	}
	const runs = 20
	if allocs := testing.AllocsPerRun(runs, feed); allocs > perRun {
		t.Fatalf("Feed allocates %.2f per %d messages, want <= 1 each (the body copy)", allocs, perRun)
	}
	if want := (runs + 1) * perRun; msgs != want {
		t.Fatalf("dispatched %d messages, want %d", msgs, want)
	}
	if cap(r.buf) > 2*maxRecord {
		t.Fatalf("reader buffer grew to %d bytes, want a few KiB", cap(r.buf))
	}
}
