// Package secure implements the TLS-equivalent session layer used by every
// control channel in the lab (the paper's "HTTPS"). It performs a handshake
// with realistic byte costs over a transport.Conn and thereafter frames
// application data into records with AEAD expansion, so captured HTTPS
// traffic carries the same protocol overhead the paper measured (one reason
// Hubs' avatar channel costs more than UDP-based ones, §5.2).
package secure

import (
	"encoding/binary"
	"errors"

	"github.com/svrlab/svrlab/internal/obs"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/transport"
)

// Handshake message sizes, modelled on a typical TLS 1.3 exchange with a
// 2-certificate chain.
const (
	clientHelloLen    = 330
	serverHelloLen    = 2900 // hello + cert chain + finished
	clientFinishedLen = 90
)

// Session is one side of an established (or establishing) secure channel.
type Session struct {
	conn    *transport.Conn
	client  bool
	ready   bool
	metrics *obs.Registry

	// Precomputed metric handles for the per-record path.
	cRecordsSent  obs.Counter
	cRecordsRecv  obs.Counter
	cAppBytesSent obs.Counter
	cAppBytesRecv obs.Counter
	cHandshakes   obs.Counter

	// OnEstablished fires when the handshake completes.
	OnEstablished func()
	// OnData receives each application record body. The slice is a view
	// into the receive buffer, valid only during the call: copy what must
	// outlive it.
	OnData func([]byte)

	// rxBuf holds the undecoded tail of the TCP byte stream, compacted to
	// the front after every delivery, so it stays about one record long.
	rxBuf []byte

	// Send-side scratch, reused for every record: rec holds one record's
	// wire image (the connection copies it), head the plaintext of a
	// message's first record (its header plus the body's first bytes).
	rec, head []byte

	// queued application data written before the handshake finished.
	pending [][]byte

	// Counters.
	AppBytesSent int
	AppBytesRecv int
}

func newSession(conn *transport.Conn, client bool) *Session {
	s := &Session{conn: conn, client: client, metrics: conn.Metrics()}
	m := s.metrics
	s.cRecordsSent = m.Counter("secure.records_sent")
	s.cRecordsRecv = m.Counter("secure.records_recv")
	s.cAppBytesSent = m.Counter("secure.app_bytes_sent")
	s.cAppBytesRecv = m.Counter("secure.app_bytes_recv")
	s.cHandshakes = m.Counter("secure.handshakes")
	return s
}

// Client starts a TLS handshake on an already-dialed connection.
func Client(conn *transport.Conn) *Session {
	s := newSession(conn, true)
	conn.OnData = s.onRaw
	start := func() {
		hello := make([]byte, clientHelloLen)
		hello[0] = 1 // ClientHello type marker inside the record body
		conn.Tracer().TLS(conn.Now(), conn.Span(), conn.HostID(), "client-hello")
		s.sendRecord(packet.TLSHandshake, hello)
	}
	if conn.State() == transport.StateEstablished {
		start()
	} else {
		prev := conn.OnEstablished
		conn.OnEstablished = func() {
			if prev != nil {
				prev()
			}
			start()
		}
	}
	return s
}

// Server wraps an accepted connection and answers the client handshake.
func Server(conn *transport.Conn) *Session {
	s := newSession(conn, false)
	conn.OnData = s.onRaw
	return s
}

// Established reports whether application data can flow.
func (s *Session) Established() bool { return s.ready }

// Conn exposes the underlying transport connection (for drain hooks).
func (s *Session) Conn() *transport.Conn { return s.conn }

// maxRecord is the plaintext size at which application data is cut into
// records.
const maxRecord = 4096

// Send transmits application bytes as one or more records. Data written
// before the handshake completes is queued and flushed on establishment.
func (s *Session) Send(data []byte) {
	if !s.ready {
		s.pending = append(s.pending, append([]byte(nil), data...))
		return
	}
	s.sendNow(data)
}

// SendMsg sends one framed message: the same bytes on the wire as
// Send(MarshalMsg(kind, body)), cut into records straight from header‖body
// without building the frame. body may be reused once SendMsg returns.
func (s *Session) SendMsg(kind byte, body []byte) {
	if !s.ready {
		s.pending = append(s.pending, MarshalMsg(kind, body))
		return
	}
	s.conn.Grow(wireLen(msgHeaderLen + len(body)))
	k := min(len(body), maxRecord-msgHeaderLen)
	s.head = append(appendMsgHeader(s.head[:0], kind, len(body)), body[:k]...)
	s.sendAppRecord(s.head)
	s.sendRecords(body[k:])
}

func (s *Session) sendNow(data []byte) {
	s.conn.Grow(wireLen(len(data)))
	s.sendRecords(data)
}

// sendRecords cuts data into maxRecord-sized application records.
func (s *Session) sendRecords(data []byte) {
	for len(data) > 0 {
		n := min(len(data), maxRecord)
		s.sendAppRecord(data[:n])
		data = data[n:]
	}
}

func (s *Session) sendAppRecord(plain []byte) {
	s.sendRecord(packet.TLSApplicationData, plain)
	s.AppBytesSent += len(plain)
	s.cRecordsSent.Inc()
	s.cAppBytesSent.Add(int64(len(plain)))
}

// sendRecord frames plain as one record in the scratch buffer and queues
// it; the connection copies it, so the scratch is free again on return.
func (s *Session) sendRecord(contentType uint8, plain []byte) {
	s.rec = packet.AppendTLSRecord(s.rec[:0], contentType, plain)
	s.conn.Send(s.rec)
}

// wireLen is the record-layer size of n application bytes.
func wireLen(n int) int {
	records := (n + maxRecord - 1) / maxRecord
	return n + records*(packet.TLSRecordHeaderLen+packet.TLSRecordOverhead)
}

func (s *Session) flushPending() {
	for _, d := range s.pending {
		s.sendNow(d)
	}
	s.pending = nil
}

// onRaw reassembles records from the TCP byte stream. A short decode waits
// for more bytes; a malformed record means the stream is corrupt beyond
// recovery (record boundaries are lost), so the buffer is dropped and the
// event counted — a real TLS peer would send a fatal alert here.
func (s *Session) onRaw(b []byte) {
	s.rxBuf = append(s.rxBuf, b...)
	off := 0
	for {
		rec, body, rest, err := packet.DecodeTLSRecord(s.rxBuf[off:])
		if errors.Is(err, packet.ErrTLSMalformed) {
			s.rxBuf = s.rxBuf[:0]
			s.metrics.Inc("secure.bad_records")
			return
		}
		if err != nil {
			break // need more bytes
		}
		off = len(s.rxBuf) - len(rest)
		switch rec.ContentType {
		case packet.TLSHandshake:
			s.onHandshake(body)
		case packet.TLSApplicationData:
			s.AppBytesRecv += len(body)
			s.cRecordsRecv.Inc()
			s.cAppBytesRecv.Add(int64(len(body)))
			if s.OnData != nil {
				s.OnData(body)
			}
		}
	}
	s.rxBuf = s.rxBuf[:copy(s.rxBuf, s.rxBuf[off:])]
}

func (s *Session) onHandshake(body []byte) {
	if s.client {
		// ServerHello+cert received: send Finished, session is up.
		if !s.ready {
			fin := make([]byte, clientFinishedLen)
			fin[0] = 20
			s.conn.Tracer().TLS(s.conn.Now(), s.conn.Span(), s.conn.HostID(), "client-finished")
			s.sendRecord(packet.TLSHandshake, fin)
			s.ready = true
			s.cHandshakes.Inc()
			s.conn.Tracer().TLS(s.conn.Now(), s.conn.Span(), s.conn.HostID(), "established")
			if s.OnEstablished != nil {
				s.OnEstablished()
			}
			s.flushPending()
		}
		return
	}
	// Server side.
	if len(body) > 0 && body[0] == 1 { // ClientHello
		reply := make([]byte, serverHelloLen)
		reply[0] = 2
		s.conn.Tracer().TLS(s.conn.Now(), s.conn.Span(), s.conn.HostID(), "server-hello")
		s.sendRecord(packet.TLSHandshake, reply)
		return
	}
	if len(body) > 0 && body[0] == 20 { // client Finished
		if !s.ready {
			s.ready = true
			s.cHandshakes.Inc()
			s.conn.Tracer().TLS(s.conn.Now(), s.conn.Span(), s.conn.HostID(), "established")
			if s.OnEstablished != nil {
				s.OnEstablished()
			}
			s.flushPending()
		}
	}
}

// Message framing helpers: the lab's HTTP-equivalent exchanges
// length-prefixed messages over a Session. A message is a 1-byte kind, a
// 4-byte length, then the body — enough structure for request/response
// matching and for the capture classifier to stay honest (it never reads
// these plaintext bytes; they are "encrypted" on the wire).
const msgHeaderLen = 5

// Kind values for framed messages.
const (
	MsgRequest  = 1
	MsgResponse = 2
	MsgPush     = 3 // server-initiated (e.g. forwarded avatar state on Hubs)
	MsgReport   = 4 // periodic client report (the §4.1 HTTPS spikes)
)

// MaxMsgLen is the largest message body a MsgReader accepts by default,
// and so the largest response a control server may send.
const MaxMsgLen = 16 << 20

// MarshalMsg frames a message. SendMsg puts the same bytes on the wire
// without building the frame; MarshalMsg remains the reference framer.
func MarshalMsg(kind byte, body []byte) []byte {
	out := appendMsgHeader(make([]byte, 0, msgHeaderLen+len(body)), kind, len(body))
	return append(out, body...)
}

func appendMsgHeader(dst []byte, kind byte, n int) []byte {
	return binary.BigEndian.AppendUint32(append(dst, kind), uint32(n))
}

// MsgReader incrementally parses framed messages from Session.OnData
// deliveries (records may split or merge messages). It copies what it
// keeps, so it may be fed views that are valid only during the call.
type MsgReader struct {
	// buf holds the unparsed tail of the stream, compacted to the front
	// after every Feed.
	buf []byte
	// OnMsg receives each message; body is the receiver's own copy.
	OnMsg  func(kind byte, body []byte)
	MaxLen int // safety bound; 0 means MaxMsgLen
}

// Feed appends bytes and dispatches every complete message.
func (r *MsgReader) Feed(b []byte) {
	r.buf = append(r.buf, b...)
	limit := r.MaxLen
	if limit == 0 {
		limit = MaxMsgLen
	}
	off := 0
	for len(r.buf)-off >= msgHeaderLen {
		m := r.buf[off:]
		n := int(binary.BigEndian.Uint32(m[1:5]))
		if n > limit {
			// Corrupt stream; drop everything.
			r.buf = r.buf[:0]
			return
		}
		if len(m) < msgHeaderLen+n {
			break
		}
		body := append([]byte(nil), m[msgHeaderLen:msgHeaderLen+n]...)
		off += msgHeaderLen + n
		if r.OnMsg != nil {
			r.OnMsg(m[0], body)
		}
	}
	r.buf = r.buf[:copy(r.buf, r.buf[off:])]
}
