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
	"github.com/svrlab/svrlab/internal/trace"
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
	conn   *transport.Conn
	client bool
	ready  bool

	// OnEstablished fires when the handshake completes.
	OnEstablished func()
	// OnMsg receives each framed message of the application stream, which
	// records may split or merge. body is a view into the session's
	// message buffer, valid only during the call: copy what must outlive
	// it. A session without OnMsg only counts what it receives.
	OnMsg func(kind byte, body []byte)

	// rxBuf holds the undecoded tail of the TCP byte stream, compacted to
	// the front after every delivery, so it stays about one record long;
	// msgBuf holds the unparsed tail of the application stream, compacted
	// the same way after every record.
	rxBuf, msgBuf []byte

	// Send-side scratch, reused for every record: rec holds one record's
	// wire image (the connection copies it), head the plaintext of a
	// message's first record (its header plus the body's first bytes).
	rec, head []byte

	// queued application data written before the handshake finished.
	pending [][]byte

	// Application bytes carried, the only record of them.
	AppBytesSent int
	AppBytesRecv int

	// Records carried, completed handshakes and malformed records.
	recordsSent, recordsRecv, handshakes, badRecords int
}

func newSession(conn *transport.Conn, client bool) *Session {
	s := &Session{conn: conn, client: client}
	conn.Enlist(s)
	return s
}

// FlushMetrics adds the session's counts to m; secure.bad_records appears
// only once a session has seen a bad record. Network.FlushMetrics calls it
// once, at lab teardown.
func (s *Session) FlushMetrics(m *obs.Registry) {
	m.Add("secure.records_sent", int64(s.recordsSent))
	m.Add("secure.records_recv", int64(s.recordsRecv))
	m.Add("secure.app_bytes_sent", int64(s.AppBytesSent))
	m.Add("secure.app_bytes_recv", int64(s.AppBytesRecv))
	m.Add("secure.handshakes", int64(s.handshakes))
	if s.badRecords > 0 {
		m.Add("secure.bad_records", int64(s.badRecords))
	}
}

// Client starts a TLS handshake on an already-dialed connection.
func Client(conn *transport.Conn) *Session {
	s := newSession(conn, true)
	conn.OnData = s.onRaw
	start := func() {
		hello := make([]byte, clientHelloLen)
		hello[0] = 1 // ClientHello type marker inside the record body
		conn.Trace(trace.KindTLS, "client-hello", 0, 0)
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

// zeros is the plaintext of every SendZeros record. It is only read.
var zeros [maxRecord]byte

// SendZeros sends one framed message with an n-byte zero body: the same
// bytes on the wire as SendMsg(kind, make([]byte, n)), without the body.
// The connection streams the records, framing each into its send buffer
// only when TCP needs it, so a large download holds about one window of
// send buffer instead of the whole response. The records are counted when
// SendZeros is called, as SendMsg counts them.
func (s *Session) SendZeros(kind byte, n int) {
	if !s.ready {
		s.pending = append(s.pending, MarshalMsg(kind, make([]byte, n)))
		return
	}
	total := msgHeaderLen + n
	s.AppBytesSent += total
	s.recordsSent += (total + maxRecord - 1) / maxRecord
	left := total
	s.conn.Stream(wireLen(total), wireLen(maxRecord), func(dst []byte) []byte {
		k := min(left, maxRecord)
		body := len(dst) + packet.TLSRecordHeaderLen
		dst = packet.AppendTLSRecord(dst, packet.TLSApplicationData, zeros[:k])
		if left == total { // the first record opens with the message header
			appendMsgHeader(dst[body:body], kind, n)
		}
		left -= k
		return dst
	})
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
	s.recordsSent++
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
			s.badRecords++
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
			s.recordsRecv++
			if s.OnMsg != nil {
				s.readMsgs(body)
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
			s.conn.Trace(trace.KindTLS, "client-finished", 0, 0)
			s.sendRecord(packet.TLSHandshake, fin)
			s.establish()
		}
		return
	}
	// Server side.
	if len(body) > 0 && body[0] == 1 { // ClientHello
		reply := make([]byte, serverHelloLen)
		reply[0] = 2
		s.conn.Trace(trace.KindTLS, "server-hello", 0, 0)
		s.sendRecord(packet.TLSHandshake, reply)
		return
	}
	if len(body) > 0 && body[0] == 20 && !s.ready { // client Finished
		s.establish()
	}
}

// establish finishes the handshake on either side: the client once it has
// sent Finished, the server once it has received it.
func (s *Session) establish() {
	s.ready = true
	s.handshakes++
	s.conn.Trace(trace.KindTLS, "established", 0, 0)
	if s.OnEstablished != nil {
		s.OnEstablished()
	}
	s.flushPending()
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
)

// MaxMsgLen is the largest message body a session accepts, and so the
// largest response a control server may send.
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

// readMsgs appends one record's plaintext to msgBuf and hands every
// complete message to OnMsg. A length prefix beyond MaxMsgLen means the
// stream is corrupt, so the buffered bytes are dropped.
func (s *Session) readMsgs(plain []byte) {
	s.msgBuf = append(s.msgBuf, plain...)
	off := 0
	for len(s.msgBuf)-off >= msgHeaderLen {
		m := s.msgBuf[off:]
		n := int(binary.BigEndian.Uint32(m[1:5]))
		if n > MaxMsgLen {
			s.msgBuf = s.msgBuf[:0]
			return
		}
		if len(m) < msgHeaderLen+n {
			break
		}
		off += msgHeaderLen + n
		s.OnMsg(m[0], m[msgHeaderLen:msgHeaderLen+n])
	}
	s.msgBuf = s.msgBuf[:copy(s.msgBuf, s.msgBuf[off:])]
}
