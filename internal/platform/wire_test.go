package platform

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/obs"
	"github.com/svrlab/svrlab/internal/secure"
	"github.com/svrlab/svrlab/internal/wiretest"
)

// Value-direction properties (parse(marshal(x)) == x over generated
// values), the regression tests for the byte(len(...)) truncation bugs,
// and truncation sweeps. The wire-direction identity (marshal(parse(b)) ==
// b over arbitrary bytes) lives in fuzz_test.go.

func TestHelloRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		h := helloMsg{Room: randName(rng, 255), User: randName(rng, 255)}
		b, err := marshalHello(h)
		if err != nil {
			t.Fatalf("marshal %+v: %v", h, err)
		}
		got, err := parseHello(b)
		if err != nil {
			t.Fatalf("parse back %+v: %v", h, err)
		}
		if got != h {
			t.Fatalf("round trip: %+v != %+v", got, h)
		}
	}
}

func TestForwardRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 500; i++ {
		user, am := randName(rng, 255), randAvatar(rng)
		b, err := appendForward(nil, user, appendAvatar(nil, am))
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		got, err := parseForward(b)
		if err != nil {
			t.Fatalf("parse back: %v", err)
		}
		if string(got.User) != user || got.Seq != am.Seq || got.ActionID != am.ActionID ||
			got.SentAtUs != am.SentAtUs || !bytes.Equal(got.Pose, am.Pose) {
			t.Fatalf("round trip: %+v != %s %+v", got, user, am)
		}
	}
}

func TestSeqRoundTrip(t *testing.T) {
	kinds := []byte{kindVoice, kindSync, kindTelemetry, kindGame, kindGameDown, kindKeepalive}
	rng := rand.New(rand.NewSource(44))
	// Senders reuse one buffer: appendSeq must zero the filler whatever
	// the buffer held before.
	dirty := make([]byte, 1300)
	for i := 0; i < 500; i++ {
		m := seqMsg{Kind: kinds[rng.Intn(len(kinds))], Seq: rng.Uint32(), Size: rng.Intn(1200)}
		rng.Read(dirty)
		got, err := parseSeq(appendSeq(dirty[:0], m))
		if err != nil {
			t.Fatalf("parse back %+v: %v", m, err)
		}
		if got != m {
			t.Fatalf("round trip: %+v != %+v", got, m)
		}
	}
}

func TestVoiceFwdRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 500; i++ {
		user := randName(rng, 255)
		inner := randBytes(rng, 400)
		b, err := marshalVoiceFwd(user, inner)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		gotUser, gotInner, err := parseVoiceFwd(b)
		if err != nil {
			t.Fatalf("parse back: %v", err)
		}
		if gotUser != user || !bytes.Equal(gotInner, inner) {
			t.Fatal("round trip mismatch")
		}
	}
}

func TestJSONEnvelopeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	dirty := make([]byte, maxEnvelopeInner*4/3+envelopeOverhead) // as in TestSeqRoundTrip
	for i := 0; i < 200; i++ {
		inner := randBytes(rng, maxEnvelopeInner)
		rng.Read(dirty)
		b, err := appendEnvelope(dirty[:0], inner)
		if err != nil {
			t.Fatalf("marshal %d bytes: %v", len(inner), err)
		}
		got, err := fromJSONEnvelope(b)
		if err != nil {
			t.Fatalf("parse back %d bytes: %v", len(inner), err)
		}
		if !bytes.Equal(got, inner) {
			t.Fatal("round trip mismatch")
		}
	}
}

func TestCtrlReqRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 500; i++ {
		reqType := byte(rng.Intn(256))
		user, room := randName(rng, 255), randName(rng, 255)
		rest := randBytes(rng, 64)
		b, err := marshalCtrlReq(reqType, user, room, rest)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		gotType, gotUser, gotRoom, gotRest, err := parseCtrlReq(b)
		if err != nil {
			t.Fatalf("parse back: %v", err)
		}
		if gotType != reqType || gotUser != user || gotRoom != room || !bytes.Equal(gotRest, rest) {
			t.Fatal("round trip mismatch")
		}
	}
}

// TestMarshalRejectsOverlongNames pins the fix for the byte(len(...))
// truncation family: a name over 255 bytes used to wrap its length prefix
// and emit a frame whose parse desynced from the writer. Every marshaler
// with a 1-byte length prefix now refuses instead.
func TestMarshalRejectsOverlongNames(t *testing.T) {
	long := strings.Repeat("x", 256)
	if _, err := marshalHello(helloMsg{Room: long, User: "u"}); err == nil {
		t.Fatal("marshalHello accepted a 256-byte room")
	}
	if _, err := marshalHello(helloMsg{Room: "r", User: long}); err == nil {
		t.Fatal("marshalHello accepted a 256-byte user")
	}
	if _, err := appendForward(nil, long, nil); err == nil {
		t.Fatal("appendForward accepted a 256-byte user")
	}
	if _, err := marshalVoiceFwd(long, nil); err == nil {
		t.Fatal("marshalVoiceFwd accepted a 256-byte user")
	}
	if _, err := marshalCtrlReq(reqLogin, long, "r", nil); err == nil {
		t.Fatal("marshalCtrlReq accepted a 256-byte user")
	}
	if _, err := marshalCtrlReq(reqLogin, "u", long, nil); err == nil {
		t.Fatal("marshalCtrlReq accepted a 256-byte room")
	}
	// 255 bytes is the boundary and must still work.
	edge := strings.Repeat("y", 255)
	b, err := marshalHello(helloMsg{Room: edge, User: edge})
	if err != nil {
		t.Fatalf("255-byte names rejected: %v", err)
	}
	if h, err := parseHello(b); err != nil || h.Room != edge || h.User != edge {
		t.Fatalf("255-byte round trip failed: %v", err)
	}
}

// TestJSONEnvelopeRejectsOversizeInner pins the fix for the 16-bit length
// prefix: payloads over 65535 bytes used to wrap it silently.
func TestJSONEnvelopeRejectsOversizeInner(t *testing.T) {
	if _, err := appendEnvelope(nil, make([]byte, maxEnvelopeInner+1)); err == nil {
		t.Fatal("appendEnvelope accepted an inner payload beyond the 16-bit prefix")
	}
	if _, err := appendEnvelope(nil, make([]byte, maxEnvelopeInner)); err != nil {
		t.Fatalf("appendEnvelope rejected the boundary size: %v", err)
	}
}

// TestEnvelopeRejectsHeaderOverlap pins the header-overlap fix: a crafted
// inner-length prefix can neither claim header bytes nor bytes the
// envelope does not carry.
func TestEnvelopeRejectsHeaderOverlap(t *testing.T) {
	b, err := appendEnvelope(nil, []byte{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, claim := range []uint16{0, 3, 5, 200, 0xffff} {
		mut := append([]byte(nil), b...)
		mut[1], mut[2] = byte(claim>>8), byte(claim)
		if _, err := fromJSONEnvelope(mut); err == nil {
			t.Fatalf("claimed inner length %d accepted for a 4-byte envelope", claim)
		}
	}
}

// Truncation sweeps: exactly-framed codecs reject every strict prefix of a
// valid frame; self-delimiting ones (avatar, forward, seq, voiceFwd treat
// the tail as payload) must uphold the re-marshal identity on any prefix
// that happens to parse.
func TestWireTruncationSweeps(t *testing.T) {
	hello, _ := marshalHello(helloMsg{Room: "room-1", User: "u1"})
	wiretest.CheckPrefixesError(t, hello, func(b []byte) error {
		_, err := parseHello(b)
		return err
	})
	env, _ := appendEnvelope(nil, appendAvatar(nil, avatarMsg{Seq: 1, Pose: []byte{9}}))
	wiretest.CheckPrefixesError(t, env, func(b []byte) error {
		_, err := fromJSONEnvelope(b)
		return err
	})

	wiretest.CheckPrefixes(t, appendAvatar(nil, avatarMsg{Seq: 1, Pose: []byte{1, 2, 3}}), checkParseAvatar)
	fwd, _ := appendForward(nil, "u2", appendAvatar(nil, avatarMsg{Seq: 1, Pose: []byte{4}}))
	wiretest.CheckPrefixes(t, fwd, checkParseForward)
	wiretest.CheckPrefixes(t, appendSeq(nil, seqMsg{Kind: kindVoice, Seq: 2, Size: 20}), checkParseSeq)
	vf, _ := marshalVoiceFwd("u2", appendSeq(nil, seqMsg{Kind: kindVoice, Seq: 3, Size: 8}))
	wiretest.CheckPrefixes(t, vf, checkParseVoiceFwd)
	req, _ := marshalCtrlReq(reqLogin, "u1", "room-1", []byte{1, 2})
	wiretest.CheckPrefixes(t, req, checkParseCtrlReq)
}

// TestDataServerSurvivesHostileDatagrams pins the kindVoice out-of-bounds
// fix: a voice datagram shorter than the seq header used to panic the data
// server on payload[5:]. The server must absorb any datagram, however
// short or corrupt, and count the violation.
func TestDataServerSurvivesHostileDatagrams(t *testing.T) {
	sched, dep, _ := lab(t, VRChat, 1, 1)
	sched.RunUntil(2 * time.Second)
	be := dep.Backend(VRChat)
	m := be.byUser["u1"]
	if m == nil || m.udpServer == nil {
		t.Fatal("u1 not joined to a UDP data server")
	}
	srv, ep := m.udpServer, m.udpEP
	hostile := [][]byte{
		{},
		{kindVoice},
		{kindVoice, 1},
		{kindVoice, 0, 0, 0, 1, 0xff}, // non-zero filler
		{kindAvatar, 1, 2},
		{kindHello, 200, 1},
		{kindForward, 9},
		{0xee, 0xff}, // unknown kind
	}
	for _, payload := range hostile {
		srv.onDatagram(ep, payload)
	}
	// A well-formed voice frame still flows after the abuse.
	srv.onDatagram(ep, appendSeq(nil, seqMsg{Kind: kindVoice, Seq: 1, Size: 40}))
	if got := counterValue(dep.Metrics(), "platform.wire_parse_err"); got < 5 {
		t.Fatalf("wire_parse_err = %d, want >= 5", got)
	}
	if got := counterValue(dep.Metrics(), "platform.wire_unknown_kind"); got < 1 {
		t.Fatalf("wire_unknown_kind = %d, want >= 1", got)
	}
}

// TestHubsClientCountsMalformedPush: a web client's downlink rides HTTPS
// pushes, so a pushed envelope whose forward is cut short counts as a parse
// error, as a short datagram does on the UDP platforms, and reaches no
// avatar.
func TestHubsClientCountsMalformedPush(t *testing.T) {
	sched, dep, cs := lab(t, Hubs, 1, 1)
	sched.RunUntil(2 * time.Second)
	m := dep.Backend(Hubs).byUser["u1"]
	if m == nil || m.ctrl == nil {
		t.Fatal("u1 not joined over the control channel")
	}
	fwd, _ := appendForward(nil, "u2", appendAvatar(nil, avatarMsg{Seq: 1}))
	body, err := appendEnvelope(nil, fwd[:len(fwd)-3])
	if err != nil {
		t.Fatal(err)
	}
	before := counterValue(dep.Metrics(), "platform.wire_parse_err")
	m.ctrl.sess.SendMsg(secure.MsgPush, body)
	sched.RunUntil(3 * time.Second)
	if got := counterValue(dep.Metrics(), "platform.wire_parse_err") - before; got != 1 {
		t.Fatalf("wire_parse_err rose by %d, want 1", got)
	}
	if cs[0].ForwardsReceived != 0 {
		t.Fatalf("ForwardsReceived = %d, want 0", cs[0].ForwardsReceived)
	}
}

func counterValue(r *obs.Registry, name string) int64 {
	for _, e := range r.Snapshot().Entries {
		if e.Name == name && e.Kind == obs.KindCounter {
			return e.Value
		}
	}
	return 0
}

func randName(rng *rand.Rand, max int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_"
	n := rng.Intn(max + 1)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

func randBytes(rng *rand.Rand, max int) []byte {
	b := make([]byte, rng.Intn(max+1))
	rng.Read(b)
	return b
}

func randAvatar(rng *rand.Rand) avatarMsg {
	return avatarMsg{
		Seq:      rng.Uint32(),
		ActionID: rng.Uint32(),
		SentAtUs: rng.Int63(),
		Pose:     randBytes(rng, 200),
	}
}
