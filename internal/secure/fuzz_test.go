package secure_test

import (
	"bytes"
	"errors"
	"testing"

	"github.com/svrlab/svrlab/internal/secure"
	"github.com/svrlab/svrlab/internal/wiretest"
)

// checkMsgReader enforces the framing hardening contract on the
// control-channel message reader: arbitrary stream bytes never panic it or
// let a length prefix demand an allocation beyond MaxMsgLen, and every
// dispatched message re-frames via MarshalMsg to the exact wire bytes it
// was cut from — whatever chunking the transport delivered. (Chunkings are
// not required to dispatch identical message lists: a corrupt oversize
// prefix drops the buffered bytes, and how much was buffered depends on
// arrival boundaries — but no chunking may ever fabricate bytes.)
func checkMsgReader(t *testing.T, data []byte) {
	run := func(chunk int) {
		r := &secure.MsgReader{
			OnMsg: func(kind byte, body []byte) {
				if len(body) > secure.MaxMsgLen {
					t.Fatalf("dispatched %d-byte body beyond MaxMsgLen", len(body))
				}
				frame := secure.MarshalMsg(kind, body)
				if !bytes.Contains(data, frame) {
					t.Fatalf("dispatched message is not a contiguous span of the input: % x", frame)
				}
			},
		}
		rest := data
		for len(rest) > 0 {
			n := chunk
			if n > len(rest) {
				n = len(rest)
			}
			r.Feed(rest[:n])
			rest = rest[n:]
		}
	}
	run(len(data) + 1) // whole stream at once
	run(3)             // message headers split across deliveries
}

// msgReaderSeeds are streams from the real framer plus a cut and a
// damaged copy; a stream is rejected when the reader dispatches nothing
// from it.
func msgReaderSeeds() []wiretest.Seed {
	// A control-channel login request for u1 in room-1, with two trailing
	// body bytes.
	login := secure.MarshalMsg(secure.MsgRequest, []byte("\x01\x02u1\x06room-1\xde\xad"))
	return []wiretest.Seed{
		{Name: "request", Data: secure.MarshalMsg(secure.MsgRequest, []byte("body"))},
		{Name: "login", Data: login},
		{Name: "two-messages", Data: append(append([]byte(nil), login...), secure.MarshalMsg(secure.MsgResponse, make([]byte, 64))...)},
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
		r := &secure.MsgReader{OnMsg: func(byte, []byte) { n++ }}
		r.Feed(data)
		if n == 0 {
			return errors.New("no message dispatched")
		}
		return nil
	})
}
