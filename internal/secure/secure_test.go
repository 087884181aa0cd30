package secure

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"github.com/svrlab/svrlab/internal/geo"
	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/simtime"
	"github.com/svrlab/svrlab/internal/transport"
)

type rig struct {
	s          *simtime.Scheduler
	net        *netsim.Network
	a, b       *netsim.Host
	sa, sb     *transport.Stack
	cli, srv   *Session
	srvAccepts int
	srvGot     bytes.Buffer // captures server message bodies from accept time
}

func newRig(t *testing.T) *rig {
	t.Helper()
	s := simtime.NewScheduler()
	n := netsim.New(s, 3, nil)
	east := n.AddSite("east", geo.Fairfax, packet.MustParseAddr("10.0.0.1"))
	a := n.AddHost("a", east, packet.MustParseAddr("10.0.0.2"), netsim.WiFiAccess())
	b := n.AddHost("b", east, packet.MustParseAddr("10.0.0.3"), netsim.DatacenterAccess())
	r := &rig{s: s, net: n, a: a, b: b, sa: transport.NewStack(n, a), sb: transport.NewStack(n, b)}
	r.sb.ListenTCP(443, func(c *transport.Conn) {
		r.srvAccepts++
		r.srv = Server(c)
		r.srv.OnMsg = func(_ byte, body []byte) { r.srvGot.Write(body) }
	})
	conn := r.sa.DialTCP(packet.Endpoint{Addr: b.Addr, Port: 443})
	r.cli = Client(conn)
	return r
}

func TestHandshakeEstablishesBothSides(t *testing.T) {
	r := newRig(t)
	cliUp, srvUp := false, false
	r.cli.OnEstablished = func() { cliUp = true }
	// Server session is created on accept; poll after run.
	r.s.RunUntil(2 * time.Second)
	if r.srv == nil {
		t.Fatal("server session never created")
	}
	r.srv.OnEstablished = func() { srvUp = true }
	r.s.RunUntil(5 * time.Second)
	if !cliUp {
		t.Fatal("client not established")
	}
	if !r.cli.ready {
		t.Fatal("client session not ready")
	}
	// srvUp may have fired before we attached; accept either signal.
	if !srvUp && !r.srv.ready {
		t.Fatal("server not established")
	}
	if r.srvAccepts != 1 {
		t.Fatalf("accepts = %d", r.srvAccepts)
	}
}

func TestApplicationDataRoundTrip(t *testing.T) {
	r := newRig(t)
	var atServer, atClient bytes.Buffer
	r.s.RunUntil(2 * time.Second)
	if r.srv == nil {
		t.Fatal("no server session")
	}
	r.srv.OnMsg = func(_ byte, body []byte) { atServer.Write(body) }
	r.cli.OnMsg = func(_ byte, body []byte) { atClient.Write(body) }
	r.cli.SendMsg(MsgRequest, []byte("GET /welcome"))
	r.s.RunUntil(4 * time.Second)
	r.srv.SendMsg(MsgResponse, []byte("200 OK payload"))
	r.s.RunUntil(8 * time.Second)
	if atServer.String() != "GET /welcome" {
		t.Fatalf("server got %q", atServer.String())
	}
	if atClient.String() != "200 OK payload" {
		t.Fatalf("client got %q", atClient.String())
	}
	// The counters count the framed message: header and body.
	if n := msgHeaderLen + len("GET /welcome"); r.cli.AppBytesSent != n || r.srv.AppBytesRecv != n {
		t.Fatalf("app byte counters wrong: %d/%d, want %d", r.cli.AppBytesSent, r.srv.AppBytesRecv, n)
	}
}

func TestSendBeforeEstablishedIsQueued(t *testing.T) {
	r := newRig(t)
	// Send immediately, before any events have run.
	r.cli.SendMsg(MsgRequest, []byte("eager"))
	r.s.RunUntil(5 * time.Second)
	if r.srvGot.String() != "eager" {
		t.Fatalf("server got %q, want queued pre-handshake data", r.srvGot.String())
	}
}

func TestLargePayloadSplitsIntoRecords(t *testing.T) {
	r := newRig(t)
	var atServer bytes.Buffer
	r.s.RunUntil(2 * time.Second)
	r.srv.OnMsg = func(_ byte, body []byte) { atServer.Write(body) }
	big := bytes.Repeat([]byte("abc"), 10000) // 30 KB
	r.cli.SendMsg(MsgPush, big)
	r.s.RunUntil(30 * time.Second)
	if !bytes.Equal(atServer.Bytes(), big) {
		t.Fatalf("received %d/%d bytes", atServer.Len(), len(big))
	}
}

// appRecords frames stream as TLS application-data records of at most
// chunk plaintext bytes each (and never more than maxRecord): the record
// stream a peer's session puts on the connection.
func appRecords(stream []byte, chunk int) []byte {
	var wire []byte
	for len(stream) > 0 {
		n := min(len(stream), chunk, maxRecord)
		wire = packet.AppendTLSRecord(wire, packet.TLSApplicationData, stream[:n])
		stream = stream[n:]
	}
	return wire
}

func TestMsgFramingRoundTrip(t *testing.T) {
	var got []struct {
		kind byte
		body []byte
	}
	s := &Session{OnMsg: func(kind byte, body []byte) {
		got = append(got, struct {
			kind byte
			body []byte
		}{kind, bytes.Clone(body)}) // the body is valid only during the call
	}}
	buf := append(MarshalMsg(MsgRequest, []byte("req")), MarshalMsg(MsgPush, []byte("push-body"))...)
	// Cut the stream into awkward records to exercise reassembly.
	s.onRaw(appRecords(buf, 3))
	if len(got) != 2 {
		t.Fatalf("messages = %d, want 2", len(got))
	}
	if got[0].kind != MsgRequest || string(got[0].body) != "req" {
		t.Fatalf("msg0 = %+v", got[0])
	}
	if got[1].kind != MsgPush || string(got[1].body) != "push-body" {
		t.Fatalf("msg1 = %+v", got[1])
	}
}

func TestMsgReaderRejectsOversize(t *testing.T) {
	s := &Session{OnMsg: func(byte, []byte) { t.Fatal("oversize message delivered") }}
	// A header that claims one byte more than MaxMsgLen: the session drops
	// the stream at once instead of buffering toward the claimed length.
	s.onRaw(appRecords(append(appendMsgHeader(nil, MsgRequest, MaxMsgLen+1), make([]byte, 100)...), maxRecord))
	if len(s.msgBuf) != 0 {
		t.Fatalf("%d bytes still buffered after an oversize header", len(s.msgBuf))
	}
	// Buffer should be discarded; a valid message afterwards is delivered.
	delivered := false
	s.OnMsg = func(byte, []byte) { delivered = true }
	s.onRaw(appRecords(MarshalMsg(MsgRequest, []byte("ok")), maxRecord))
	if !delivered {
		t.Fatal("session did not recover after oversize drop")
	}
}

// TestSessionWithoutOnMsgOnlyCounts: a session with no OnMsg (an asset
// download's) counts each application record and its bytes, and keeps
// none of them: nothing reaches its message buffer.
func TestSessionWithoutOnMsgOnlyCounts(t *testing.T) {
	stream := append(MarshalMsg(MsgResponse, make([]byte, 6000)), MarshalMsg(MsgPush, []byte("tail"))...)
	s := &Session{}
	s.onRaw(appRecords(stream, maxRecord))
	if s.AppBytesRecv != len(stream) || s.recordsRecv != 2 {
		t.Fatalf("counted %d bytes in %d records, want %d in 2", s.AppBytesRecv, s.recordsRecv, len(stream))
	}
	if len(s.msgBuf) != 0 || cap(s.msgBuf) != 0 {
		t.Fatalf("message buffer holds %d bytes (cap %d), want none", len(s.msgBuf), cap(s.msgBuf))
	}
}

func TestPropertyMsgFramingAnyChunking(t *testing.T) {
	f := func(bodies [][]byte, chunk uint8) bool {
		if len(bodies) > 8 {
			bodies = bodies[:8]
		}
		var wire []byte
		for _, b := range bodies {
			if len(b) > 2000 {
				b = b[:2000]
			}
			wire = append(wire, MarshalMsg(MsgPush, b)...)
		}
		var got [][]byte
		s := &Session{OnMsg: func(_ byte, body []byte) { got = append(got, bytes.Clone(body)) }}
		s.onRaw(appRecords(wire, int(chunk%16)+1))
		if len(got) != len(bodies) {
			return false
		}
		for i := range got {
			want := bodies[i]
			if len(want) > 2000 {
				want = want[:2000]
			}
			if !bytes.Equal(got[i], want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHandshakeByteCostIsRealistic(t *testing.T) {
	// The handshake alone should cost a few KB on the wire — this is what
	// makes control-channel connections visibly bursty in Fig. 2.
	r := newRig(t)
	r.s.RunUntil(5 * time.Second)
	total := r.a.Up.OfferedBytes + r.a.Down.CarriedBytes
	if total < 3000 {
		t.Fatalf("handshake moved only %d bytes, want >3KB", total)
	}
	if total > 20000 {
		t.Fatalf("handshake moved %d bytes, suspiciously many", total)
	}
}

// TestBadRecordsListedOnceSeen: secure.bad_records is absent from a lab
// whose sessions saw no malformed record, and counts the one a second lab's
// server saw.
func TestBadRecordsListedOnceSeen(t *testing.T) {
	clean := newRig(t)
	clean.s.RunUntil(2 * time.Second)
	clean.cli.Send([]byte("hello"))
	clean.s.RunUntil(4 * time.Second)
	clean.net.FlushMetrics()
	s := clean.net.Metrics.Snapshot()
	if e, ok := s.Get("secure.bad_records"); ok {
		t.Fatalf("clean sessions listed bad records: %+v", e)
	}
	if got := s.Counter("secure.app_bytes_recv"); got != int64(len("hello")) {
		t.Fatalf("secure.app_bytes_recv = %d, want %d", got, len("hello"))
	}
	r := newRig(t)
	r.s.RunUntil(2 * time.Second)
	// A record header with a wrong protocol version, written straight onto
	// the TCP stream beneath the client's session.
	r.cli.conn.Send([]byte{packet.TLSApplicationData, 9, 9, 0, 0})
	r.s.RunUntil(4 * time.Second)
	if r.srv.badRecords != 1 {
		t.Fatalf("server counted %d bad records, want 1", r.srv.badRecords)
	}
	r.net.FlushMetrics()
	if got := r.net.Metrics.Snapshot().Counter("secure.bad_records"); got != 1 {
		t.Fatalf("secure.bad_records = %d, want 1", got)
	}
}
