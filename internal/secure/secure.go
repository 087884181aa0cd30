// Package secure implements the TLS-equivalent session layer used by every
// control channel in the lab (the paper's "HTTPS"). It performs a handshake
// with realistic byte costs over a transport.Conn and thereafter frames
// application data into records with AEAD expansion, so captured HTTPS
// traffic carries the same protocol overhead the paper measured (one reason
// Hubs' avatar channel costs more than UDP-based ones, §5.2).
package secure

import (
	"encoding/binary"

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
	// it. A session without OnMsg only counts what it receives, and so
	// does one whose OnMsg is set after a record's header has arrived, for
	// that record.
	OnMsg func(kind byte, body []byte)

	// Receive state between deliveries. hdr holds the first nhdr bytes of a
	// record header that a delivery cut; in is the record whose header is
	// whole, left how many of its wire bytes are still to come (0 between
	// records), aead the OR of its AEAD bytes so far, and keep whether its
	// body is read, into rxBuf. msgBuf holds the unparsed tail of the
	// application stream, compacted after every record.
	hdr           [packet.TLSRecordHeaderLen]byte
	nhdr, left    int
	in            packet.TLSRecord
	aead          byte
	keep          bool
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

// Client starts a TLS handshake on conn, whose TCP handshake must not have
// completed yet (a connection DialTCP just returned): Client takes the
// connection's OnEstablished and sends the ClientHello from it.
func Client(conn *transport.Conn) *Session {
	s := newSession(conn, true)
	conn.OnData = s.onRaw
	conn.OnEstablished = func() {
		hello := make([]byte, clientHelloLen)
		hello[0] = 1 // ClientHello type marker inside the record body
		conn.Trace(trace.KindTLS, "client-hello", 0, 0)
		s.sendRecord(packet.TLSHandshake, hello)
	}
	return s
}

// Server wraps an accepted connection and answers the client handshake.
func Server(conn *transport.Conn) *Session {
	s := newSession(conn, false)
	conn.OnData = s.onRaw
	return s
}

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
	s.sendRecords(data)
}

// SendMsg sends one framed message: the same bytes on the wire as
// Send(MarshalMsg(kind, body)), cut into records straight from header‖body
// without building the frame. body may be reused once SendMsg returns.
func (s *Session) SendMsg(kind byte, body []byte) {
	if !s.ready {
		s.pending = append(s.pending, MarshalMsg(kind, body))
		return
	}
	k := min(len(body), maxRecord-msgHeaderLen)
	s.head = append(appendMsgHeader(s.head[:0], kind, len(body)), body[:k]...)
	s.sendAppRecord(s.head)
	s.sendRecords(body[k:])
}

// SendZeros sends one framed message with an n-byte zero body: the same
// bytes on the wire as SendMsg(kind, make([]byte, n)), without the body.
// The connection streams the records and keeps none of their bytes: it
// writes each segment's share of them only when TCP sends it. The records
// are counted when SendZeros is called, as SendMsg counts them.
func (s *Session) SendZeros(kind byte, n int) {
	if !s.ready {
		s.pending = append(s.pending, MarshalMsg(kind, make([]byte, n)))
		return
	}
	total := msgHeaderLen + n
	s.AppBytesSent += total
	s.recordsSent += (total + maxRecord - 1) / maxRecord
	s.conn.Stream(wireLen(total), wireLen(maxRecord), func(dst []byte, off int) {
		zeroRecords(dst, off, kind, n)
	})
}

// zeroRecords writes into dst the wire bytes, from stream offset off, of
// the records that carry a message of kind with an n-byte zero body:
// zeros, each record's header, and the message header that opens the
// first record's plaintext.
func zeroRecords(dst []byte, off int, kind byte, n int) {
	clear(dst)
	rec, total := wireLen(maxRecord), msgHeaderLen+n
	var buf [packet.TLSRecordHeaderLen + msgHeaderLen]byte
	for r := off / rec; r*rec < off+len(dst); r++ {
		h := packet.AppendTLSHeader(buf[:0], packet.TLSApplicationData, min(total-r*maxRecord, maxRecord))
		if r == 0 {
			h = appendMsgHeader(h, kind, n)
		}
		// h lies at stream offset r*rec; copy what of it falls in dst.
		if at := r*rec - off; at >= 0 {
			copy(dst[at:], h)
		} else if -at < len(h) {
			copy(dst, h[-at:])
		}
	}
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
		s.sendRecords(d)
	}
	s.pending = nil
}

// onRaw parses records where they lie in b, a delivered piece of the TCP
// byte stream, and checks each record's AEAD bytes there. It copies a
// record's body only when something reads it: a handshake record, or an
// application record when OnMsg is set; any other body is only counted. So
// between deliveries a session keeps at most a header that b cut and one
// read body. A malformed record means the stream is corrupt beyond
// recovery (record boundaries are lost), so the rest of b is dropped and
// the event counted — a real TLS peer would send a fatal alert here.
func (s *Session) onRaw(b []byte) {
	for len(b) > 0 {
		if s.left == 0 {
			k := copy(s.hdr[s.nhdr:], b)
			if b, s.nhdr = b[k:], s.nhdr+k; s.nhdr < len(s.hdr) {
				return
			}
			s.nhdr = 0
			rec, err := packet.DecodeTLSHeader(s.hdr[:])
			if err != nil {
				s.badRecords++
				return
			}
			s.in, s.left = rec, rec.BodyLen
			s.keep = rec.ContentType == packet.TLSHandshake || rec.ContentType == packet.TLSApplicationData && s.OnMsg != nil
		}
		// b's share of the record: plaintext, then the AEAD bytes of its
		// last TLSRecordOverhead.
		k := min(len(b), s.left)
		plain := min(k, max(0, s.left-packet.TLSRecordOverhead))
		if s.keep {
			s.rxBuf = append(s.rxBuf, b[:plain]...)
		}
		for _, c := range b[plain:k] {
			s.aead |= c
		}
		if b, s.left = b[k:], s.left-k; s.left > 0 {
			return
		}
		body, bad := s.rxBuf, s.aead != 0
		s.rxBuf, s.aead = s.rxBuf[:0], 0
		if bad {
			s.badRecords++
			return
		}
		switch s.in.ContentType {
		case packet.TLSHandshake:
			s.onHandshake(body)
		case packet.TLSApplicationData:
			s.AppBytesRecv += s.in.BodyLen - packet.TLSRecordOverhead
			s.recordsRecv++
			if s.keep {
				s.readMsgs(body)
			}
		}
	}
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
