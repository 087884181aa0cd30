package secure_test

import (
	"bytes"
	"testing"

	"github.com/svrlab/svrlab/internal/secure"
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

func FuzzMsgReader(f *testing.F) {
	f.Add(secure.MarshalMsg(secure.MsgRequest, []byte("body")))
	f.Fuzz(checkMsgReader)
}
