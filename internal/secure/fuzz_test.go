package secure

import (
	"bytes"
	"errors"
	"testing"

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
