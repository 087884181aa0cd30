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
// Each target's seeds are frames from the real marshalers plus damaged
// variants (truncations, flipped bytes, desynced length prefixes) that pin
// the rejection paths; plain `go test` runs the body on each seed as a
// subtest, and each target's Test…Seeds holds the parser to every seed's
// verdict.

// seedAvatar is the avatar frame the forward and envelope seeds carry.
var seedAvatar = appendAvatar(nil, avatarMsg{Seq: 9, ActionID: 1, SentAtUs: 12345, Pose: []byte{7, 8, 9}})

// seedVoice is the voice frame the voice-forward seeds carry.
var seedVoice = appendSeq(nil, seqMsg{Kind: kindVoice, Seq: 5, Size: 40})

// mustWire returns a marshaler's frame; a seed that cannot be built panics.
func mustWire(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

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

func parseHelloSeeds() []wiretest.Seed {
	hello := mustWire(marshalHello(helloMsg{Room: "room", User: "u1"}))
	return []wiretest.Seed{
		{Name: "room-1", Data: mustWire(marshalHello(helloMsg{Room: "room-1", User: "u1"}))},
		{Name: "room", Data: hello},
		{Name: "truncated-name", Data: hello[:4], Reject: true},
		{Name: "wrong-kind", Data: wiretest.Flip(hello, 0, 1), Reject: true},
		{Name: "length-prefix-desync", Data: wiretest.Flip(hello, 1, 2), Reject: true},
		{Name: "empty-names", Data: mustWire(marshalHello(helloMsg{}))},
	}
}

func FuzzParseHello(f *testing.F) {
	wiretest.AddSeeds(f, parseHelloSeeds())
	f.Fuzz(checkParseHello)
}

func TestParseHelloSeeds(t *testing.T) {
	wiretest.CheckVerdicts(t, parseHelloSeeds(), func(data []byte) error {
		_, err := parseHello(data)
		return err
	})
}

func checkParseAvatar(t *testing.T, data []byte) {
	am, err := parseAvatar(data)
	if err != nil {
		return
	}
	wiretest.AssertRemarshal(t, data, appendAvatar(nil, am))
}

func parseAvatarSeeds() []wiretest.Seed {
	return []wiretest.Seed{
		{Name: "one-byte-pose", Data: appendAvatar(nil, avatarMsg{Seq: 1, ActionID: 2, SentAtUs: 3, Pose: []byte{4}})},
		{Name: "avatar", Data: seedAvatar},
		{Name: "empty-pose", Data: seedAvatar[:avatarHdrLen]},
		{Name: "truncated-header", Data: seedAvatar[:10], Reject: true},
		{Name: "wrong-kind", Data: wiretest.Flip(seedAvatar, 0, 1), Reject: true},
	}
}

func FuzzParseAvatar(f *testing.F) {
	wiretest.AddSeeds(f, parseAvatarSeeds())
	f.Fuzz(checkParseAvatar)
}

func TestParseAvatarSeeds(t *testing.T) {
	wiretest.CheckVerdicts(t, parseAvatarSeeds(), func(data []byte) error {
		_, err := parseAvatar(data)
		return err
	})
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

func parseForwardSeeds() []wiretest.Seed {
	forward := mustWire(appendForward(nil, "u2", seedAvatar))
	return []wiretest.Seed{
		{Name: "empty-pose", Data: mustWire(appendForward(nil, "u2", appendAvatar(nil, avatarMsg{Seq: 1})))},
		{Name: "forward", Data: forward},
		{Name: "truncated-inner", Data: forward[:6], Reject: true},
		{Name: "user-length-desync", Data: wiretest.Flip(forward, 1, 4), Reject: true},
		{Name: "inner-kind-corrupted", Data: wiretest.Flip(forward, 4, 1), Reject: true},
		{Name: "empty-user", Data: mustWire(appendForward(nil, "", seedAvatar))},
	}
}

func FuzzParseForward(f *testing.F) {
	wiretest.AddSeeds(f, parseForwardSeeds())
	f.Fuzz(checkParseForward)
}

func TestParseForwardSeeds(t *testing.T) {
	wiretest.CheckVerdicts(t, parseForwardSeeds(), func(data []byte) error {
		_, err := parseForward(data)
		return err
	})
}

func checkParseSeq(t *testing.T, data []byte) {
	m, err := parseSeq(data)
	if err != nil {
		return
	}
	wiretest.AssertRemarshal(t, data, appendSeq(nil, m))
}

func parseSeqSeeds() []wiretest.Seed {
	return []wiretest.Seed{
		{Name: "voice", Data: seedVoice},
		{Name: "keepalive", Data: appendSeq(nil, seqMsg{Kind: kindKeepalive, Seq: 1})},
		{Name: "short-header", Data: seedVoice[:3], Reject: true},
		{Name: "unknown-kind", Data: wiretest.Flip(seedVoice, 0, 0xff), Reject: true},
		{Name: "non-zero-filler", Data: wiretest.Flip(seedVoice, 10, 1), Reject: true},
	}
}

func FuzzParseSeq(f *testing.F) {
	wiretest.AddSeeds(f, parseSeqSeeds())
	f.Fuzz(checkParseSeq)
}

func TestParseSeqSeeds(t *testing.T) {
	wiretest.CheckVerdicts(t, parseSeqSeeds(), func(data []byte) error {
		_, err := parseSeq(data)
		return err
	})
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

func parseVoiceFwdSeeds() []wiretest.Seed {
	voiceFwd := mustWire(marshalVoiceFwd("u2", seedVoice))
	return []wiretest.Seed{
		{Name: "small-voice", Data: mustWire(marshalVoiceFwd("u2", appendSeq(nil, seqMsg{Kind: kindVoice, Seq: 1, Size: 8})))},
		{Name: "voice", Data: voiceFwd},
		{Name: "user-inner-boundary", Data: voiceFwd[:2], Reject: true},
		{Name: "wrong-kind", Data: wiretest.Flip(voiceFwd, 0, 1), Reject: true},
		{Name: "user-length-beyond-frame", Data: wiretest.Flip(voiceFwd, 1, 0x7f), Reject: true},
	}
}

func FuzzParseVoiceFwd(f *testing.F) {
	wiretest.AddSeeds(f, parseVoiceFwdSeeds())
	f.Fuzz(checkParseVoiceFwd)
}

func TestParseVoiceFwdSeeds(t *testing.T) {
	wiretest.CheckVerdicts(t, parseVoiceFwdSeeds(), func(data []byte) error {
		_, _, err := parseVoiceFwd(data)
		return err
	})
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

func jsonEnvelopeSeeds() []wiretest.Seed {
	envelope := mustWire(appendEnvelope(nil, seedAvatar))
	return []wiretest.Seed{
		{Name: "empty-pose", Data: mustWire(appendEnvelope(nil, appendAvatar(nil, avatarMsg{Seq: 1})))},
		{Name: "avatar", Data: envelope},
		{Name: "empty-inner", Data: mustWire(appendEnvelope(nil, nil))},
		{Name: "truncated", Data: envelope[:30], Reject: true},
		{Name: "inner-length-desync", Data: wiretest.Flip(envelope, 2, 1), Reject: true},
		{Name: "marker-corrupted", Data: wiretest.Flip(envelope, 5, 1), Reject: true},
		{Name: "filler-corrupted", Data: wiretest.Flip(envelope, 40, 1), Reject: true},
	}
}

func FuzzJSONEnvelope(f *testing.F) {
	wiretest.AddSeeds(f, jsonEnvelopeSeeds())
	f.Fuzz(checkJSONEnvelope)
}

func TestJSONEnvelopeSeeds(t *testing.T) {
	wiretest.CheckVerdicts(t, jsonEnvelopeSeeds(), func(data []byte) error {
		_, err := fromJSONEnvelope(data)
		return err
	})
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

func parseCtrlReqSeeds() []wiretest.Seed {
	login := mustWire(marshalCtrlReq(reqLogin, "u1", "room-1", []byte{0xde, 0xad}))
	return []wiretest.Seed{
		{Name: "login", Data: mustWire(marshalCtrlReq(reqLogin, "u1", "room-1", nil))},
		{Name: "login-with-body", Data: login},
		{Name: "asset", Data: mustWire(marshalCtrlReq(reqAsset, "u1", "", []byte{0, 0, 0x40, 0}))},
		{Name: "short", Data: login[:2], Reject: true},
		{Name: "user-length-beyond-frame", Data: wiretest.Flip(login, 1, 0x7f), Reject: true},
	}
}

func FuzzParseCtrlReq(f *testing.F) {
	wiretest.AddSeeds(f, parseCtrlReqSeeds())
	f.Fuzz(checkParseCtrlReq)
}

func TestParseCtrlReqSeeds(t *testing.T) {
	wiretest.CheckVerdicts(t, parseCtrlReqSeeds(), func(data []byte) error {
		_, _, _, _, err := parseCtrlReq(data)
		return err
	})
}
