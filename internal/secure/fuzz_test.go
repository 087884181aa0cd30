package secure

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"github.com/svrlab/svrlab/internal/geo"
	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/simtime"
	"github.com/svrlab/svrlab/internal/transport"
	"github.com/svrlab/svrlab/internal/wiretest"
)

// checkMsgReader enforces the framing hardening contract on the
// control-channel message reader, a session fed the stream as application
// records: arbitrary stream bytes never panic it or let a length prefix
// demand an allocation beyond MaxMsgLen, and every dispatched message
// re-frames via MarshalMsg to the exact wire bytes it was cut from —
// whatever record cuts the sender made. (Cuts are not required to dispatch
// identical message lists: a corrupt oversize prefix drops the buffered
// bytes, and how much was buffered depends on record boundaries — but no
// cut may ever fabricate bytes.)
func checkMsgReader(t *testing.T, data []byte) {
	run := func(chunk int) {
		s := &Session{
			OnMsg: func(kind byte, body []byte) {
				if len(body) > MaxMsgLen {
					t.Fatalf("dispatched %d-byte body beyond MaxMsgLen", len(body))
				}
				frame := MarshalMsg(kind, body)
				if !bytes.Contains(data, frame) {
					t.Fatalf("dispatched message is not a contiguous span of the input: % x", frame)
				}
			},
		}
		s.onRaw(appRecords(data, chunk))
	}
	run(maxRecord) // full records, as SendMsg cuts them
	run(3)         // message headers split across records
}

// msgReaderSeeds are streams from the real framer plus a cut and a
// damaged copy; a stream is rejected when the session dispatches nothing
// from it.
func msgReaderSeeds() []wiretest.Seed {
	// A control-channel login request for u1 in room-1, with two trailing
	// body bytes.
	login := MarshalMsg(MsgRequest, []byte("\x01\x02u1\x06room-1\xde\xad"))
	return []wiretest.Seed{
		{Name: "request", Data: MarshalMsg(MsgRequest, []byte("body"))},
		{Name: "login", Data: login},
		{Name: "two-messages", Data: append(append([]byte(nil), login...), MarshalMsg(MsgResponse, make([]byte, 64))...)},
		{Name: "split-header", Data: login[:3], Reject: true},
		{Name: "huge-length-prefix", Data: wiretest.Flip(login, 1, 0xff), Reject: true},
	}
}

func FuzzMsgReader(f *testing.F) {
	wiretest.AddSeeds(f, msgReaderSeeds())
	f.Fuzz(checkMsgReader)
}

func TestMsgReaderSeeds(t *testing.T) {
	wiretest.CheckVerdicts(t, msgReaderSeeds(), func(data []byte) error {
		n := 0
		s := &Session{OnMsg: func(byte, []byte) { n++ }}
		s.onRaw(appRecords(data, maxRecord))
		if n == 0 {
			return errors.New("no message dispatched")
		}
		return nil
	})
}

// oracleOnRaw is the receive path a session had before it parsed records
// where they land: append each delivery to rxBuf, cut whole records from
// its front with packet.DecodeTLSRecord, then compact. FuzzRecordStream
// holds onRaw to it.
func oracleOnRaw(s *Session, b []byte) {
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

// readerTally is what a reader of a record stream reports: its record,
// application-byte, bad-record and handshake counts, and the handshake
// reply bytes it queued on its connection.
type readerTally struct {
	records, appBytes, bad, handshakes, replied int
}

func tallyOf(s *Session) readerTally {
	return readerTally{s.recordsRecv, s.AppBytesRecv, s.badRecords, s.handshakes, s.conn.Buffered()}
}

// checkRecordStream delivers stream to three readers in pieces whose
// lengths come from cuts (each byte one piece of 1 to 256 bytes, the rest
// in one piece once cuts run out): a session with OnMsg, a session
// without, and oracleOnRaw over a third with OnMsg. Each is a server
// session on a connection of its own, so a handshake record reaches
// onHandshake as in a lab. Every piece is a fresh copy, overwritten once
// its reader returns, as the fabric recycles a delivered payload. All
// three must report the same tally, and the first must dispatch exactly
// the oracle's messages.
func checkRecordStream(t *testing.T, stream, cuts []byte) {
	n := netsim.New(simtime.NewScheduler(), 1, nil)
	site := n.AddSite("east", geo.Fairfax, packet.MustParseAddr("10.0.0.1"))
	st := transport.NewStack(n, n.AddHost("a", site, packet.MustParseAddr("10.0.0.2"), netsim.DatacenterAccess()))
	peer := packet.Endpoint{Addr: packet.MustParseAddr("10.0.0.3"), Port: 443}
	var msgs [2][]byte // framed messages the OnMsg session and the oracle dispatched
	dispatch := func(i int) func(byte, []byte) {
		return func(kind byte, body []byte) { msgs[i] = append(msgs[i], MarshalMsg(kind, body)...) }
	}
	withMsg, without, oracle := Server(st.DialTCP(peer)), Server(st.DialTCP(peer)), Server(st.DialTCP(peer))
	withMsg.OnMsg, oracle.OnMsg = dispatch(0), dispatch(1)
	readers := []func([]byte){withMsg.onRaw, without.onRaw, func(b []byte) { oracleOnRaw(oracle, b) }}
	for rest := stream; len(rest) > 0; {
		k := len(rest)
		if len(cuts) > 0 {
			k = min(k, int(cuts[0])+1)
			cuts = cuts[1:]
		}
		for _, read := range readers {
			piece := bytes.Clone(rest[:k])
			read(piece)
			for i := range piece {
				piece[i] = 0xa5
			}
		}
		rest = rest[k:]
	}
	want := tallyOf(oracle)
	if got := tallyOf(withMsg); got != want {
		t.Fatalf("session with OnMsg tallied %+v, the oracle %+v", got, want)
	}
	if got := tallyOf(without); got != want {
		t.Fatalf("session without OnMsg tallied %+v, the oracle %+v", got, want)
	}
	if !bytes.Equal(msgs[0], msgs[1]) {
		t.Fatalf("session dispatched % x, the oracle % x", msgs[0], msgs[1])
	}
}

// FuzzRecordStream holds onRaw, which parses records where they lie in
// each delivery, to the oracle that buffered the whole stream: arbitrary
// stream bytes, cut at arbitrary points.
func FuzzRecordStream(f *testing.F) {
	hello := make([]byte, clientHelloLen)
	hello[0] = 1
	fin := make([]byte, clientFinishedLen)
	fin[0] = 20
	handshake := append(packet.MarshalTLSRecord(packet.TLSHandshake, hello), packet.MarshalTLSRecord(packet.TLSHandshake, fin)...)
	app := appRecords(append(MarshalMsg(MsgRequest, []byte("body")), MarshalMsg(MsgPush, make([]byte, 5000))...), maxRecord)
	ok := packet.MarshalTLSRecord(packet.TLSApplicationData, MarshalMsg(MsgResponse, []byte("ok")))
	// Each damaged record is followed by ok in the same piece, which the
	// drop loses, and by ok again in the next piece, which must count.
	damaged := func(rec []byte) []byte { return slices.Concat(rec, ok, ok) }
	damagedCuts := func(rec []byte) []byte { return []byte{byte(len(rec) + len(ok) - 1)} }
	lenField := func(n int) []byte {
		return binary.BigEndian.AppendUint16([]byte{packet.TLSApplicationData, 3, 3}, uint16(n))
	}
	wrongVersion := wiretest.Flip(ok, 2, 2)
	short := lenField(packet.TLSRecordOverhead - 1)
	long := append(lenField(packet.MaxTLSPlaintext+packet.TLSRecordOverhead+1), make([]byte, 64)...)
	badAEAD := wiretest.Flip(ok, len(ok)-packet.TLSRecordOverhead, 1)

	f.Add(handshake, []byte{99, 255, 7})                    // valid handshake records
	f.Add(app, []byte{255, 255, 255, 255, 255, 3})          // valid application records
	f.Add(damaged(wrongVersion), damagedCuts(wrongVersion)) // a wrong version
	f.Add(damaged(short), damagedCuts(short))               // a length below the AEAD overhead
	f.Add(damaged(long), damagedCuts(long))                 // a length above MaxTLSPlaintext
	f.Add(damaged(badAEAD), []byte{30, 40})                 // one non-zero AEAD byte, then a cut inside the AEAD
	f.Add(ok, []byte{2})                                    // a header split across two deliveries
	f.Fuzz(checkRecordStream)
}
