package platform

import (
	"testing"

	"github.com/svrlab/svrlab/internal/wiretest"
)

// Fuzz bodies for every data-channel and control-channel codec. Each
// enforces the §4.10 hardening contract: arbitrary bytes never panic, and
// any frame that parses re-marshals byte-identically — which also proves
// the marshalers can never error on a value their parser produced (parsed
// names are ≤255 bytes, parsed envelope payloads fit the 16-bit prefix).
// Plain `go test` runs each target's body over its checked-in seed corpus
// (testdata/fuzz/<Target>), one subtest per file.

func checkParseHello(t *testing.T, data []byte) {
	h, err := parseHello(data)
	if err != nil {
		return
	}
	out, err := marshalHello(h)
	if err != nil {
		t.Fatalf("re-marshal errored on parsed value: %v", err)
	}
	wiretest.AssertRemarshal(t, data, out)
}

func FuzzParseHello(f *testing.F) {
	seed, _ := marshalHello(helloMsg{Room: "room-1", User: "u1"})
	f.Add(seed)
	f.Fuzz(checkParseHello)
}

func checkParseAvatar(t *testing.T, data []byte) {
	am, err := parseAvatar(data)
	if err != nil {
		return
	}
	wiretest.AssertRemarshal(t, data, appendAvatar(nil, am))
}

func FuzzParseAvatar(f *testing.F) {
	f.Add(appendAvatar(nil, avatarMsg{Seq: 1, ActionID: 2, SentAtUs: 3, Pose: []byte{4}}))
	f.Fuzz(checkParseAvatar)
}

func checkParseForward(t *testing.T, data []byte) {
	fw, err := parseForward(data)
	if err != nil {
		return
	}
	out, err := appendForward(nil, string(fw.User), appendAvatar(nil, fw.avatarMsg))
	if err != nil {
		t.Fatalf("re-marshal errored on parsed value: %v", err)
	}
	wiretest.AssertRemarshal(t, data, out)
}

func FuzzParseForward(f *testing.F) {
	seed, _ := appendForward(nil, "u2", appendAvatar(nil, avatarMsg{Seq: 1}))
	f.Add(seed)
	f.Fuzz(checkParseForward)
}

func checkParseSeq(t *testing.T, data []byte) {
	m, err := parseSeq(data)
	if err != nil {
		return
	}
	wiretest.AssertRemarshal(t, data, appendSeq(nil, m))
}

func FuzzParseSeq(f *testing.F) {
	f.Add(appendSeq(nil, seqMsg{Kind: kindVoice, Seq: 5, Size: 40}))
	f.Fuzz(checkParseSeq)
}

func checkParseVoiceFwd(t *testing.T, data []byte) {
	user, inner, err := parseVoiceFwd(data)
	if err != nil {
		return
	}
	out, err := marshalVoiceFwd(user, inner)
	if err != nil {
		t.Fatalf("re-marshal errored on parsed value: %v", err)
	}
	wiretest.AssertRemarshal(t, data, out)
}

func FuzzParseVoiceFwd(f *testing.F) {
	seed, _ := marshalVoiceFwd("u2", appendSeq(nil, seqMsg{Kind: kindVoice, Seq: 1, Size: 8}))
	f.Add(seed)
	f.Fuzz(checkParseVoiceFwd)
}

func checkJSONEnvelope(t *testing.T, data []byte) {
	inner, err := fromJSONEnvelope(data)
	if err != nil {
		return
	}
	out, err := appendEnvelope(nil, inner)
	if err != nil {
		t.Fatalf("re-marshal errored on parsed value: %v", err)
	}
	wiretest.AssertRemarshal(t, data, out)
}

func FuzzJSONEnvelope(f *testing.F) {
	seed, _ := appendEnvelope(nil, appendAvatar(nil, avatarMsg{Seq: 1}))
	f.Add(seed)
	f.Fuzz(checkJSONEnvelope)
}

func checkParseCtrlReq(t *testing.T, data []byte) {
	reqType, user, room, rest, err := parseCtrlReq(data)
	if err != nil {
		return
	}
	out, err := marshalCtrlReq(reqType, user, room, rest)
	if err != nil {
		t.Fatalf("re-marshal errored on parsed value: %v", err)
	}
	wiretest.AssertRemarshal(t, data, out)
}

func FuzzParseCtrlReq(f *testing.F) {
	seed, _ := marshalCtrlReq(reqLogin, "u1", "room-1", nil)
	f.Add(seed)
	f.Fuzz(checkParseCtrlReq)
}
