package platform

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/obs"
	"github.com/svrlab/svrlab/internal/secure"
	"github.com/svrlab/svrlab/internal/simtime"
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
		f := forwardMsg{User: randName(rng, 255), avatarMsg: randAvatar(rng)}
		b, err := marshalForward(f)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		got, err := parseForward(b)
		if err != nil {
			t.Fatalf("parse back: %v", err)
		}
		if got.User != f.User || got.Seq != f.Seq || got.ActionID != f.ActionID ||
			got.SentAtUs != f.SentAtUs || !bytes.Equal(got.Pose, f.Pose) {
			t.Fatalf("round trip: %+v != %+v", got, f)
		}
	}
}

func TestSeqRoundTrip(t *testing.T) {
	kinds := []byte{kindVoice, kindSync, kindTelemetry, kindGame, kindGameDown, kindKeepalive}
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 500; i++ {
		m := seqMsg{Kind: kinds[rng.Intn(len(kinds))], Seq: rng.Uint32(), Size: rng.Intn(1200)}
		got, err := parseSeq(marshalSeq(m))
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
	for i := 0; i < 200; i++ {
		inner := randBytes(rng, maxEnvelopeInner)
		b, err := jsonEnvelope(inner)
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
	if _, err := marshalForward(forwardMsg{User: long}); err == nil {
		t.Fatal("marshalForward accepted a 256-byte user")
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
	if _, err := jsonEnvelope(make([]byte, maxEnvelopeInner+1)); err == nil {
		t.Fatal("jsonEnvelope accepted an inner payload beyond the 16-bit prefix")
	}
	if _, err := jsonEnvelope(make([]byte, maxEnvelopeInner)); err != nil {
		t.Fatalf("jsonEnvelope rejected the boundary size: %v", err)
	}
}

// TestEnvelopeRejectsHeaderOverlap pins the header-overlap fix: a crafted
// inner-length prefix can neither claim header bytes nor bytes the
// envelope does not carry.
func TestEnvelopeRejectsHeaderOverlap(t *testing.T) {
	b, err := jsonEnvelope([]byte{1, 2, 3, 4})
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
	env, _ := jsonEnvelope(marshalAvatar(avatarMsg{Seq: 1, Pose: []byte{9}}))
	wiretest.CheckPrefixesError(t, env, func(b []byte) error {
		_, err := fromJSONEnvelope(b)
		return err
	})

	wiretest.CheckPrefixes(t, marshalAvatar(avatarMsg{Seq: 1, Pose: []byte{1, 2, 3}}), checkParseAvatar)
	fwd, _ := marshalForward(forwardMsg{User: "u2", avatarMsg: avatarMsg{Seq: 1, Pose: []byte{4}}})
	wiretest.CheckPrefixes(t, fwd, checkParseForward)
	wiretest.CheckPrefixes(t, marshalSeq(seqMsg{Kind: kindVoice, Seq: 2, Size: 20}), checkParseSeq)
	vf, _ := marshalVoiceFwd("u2", marshalSeq(seqMsg{Kind: kindVoice, Seq: 3, Size: 8}))
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
	srv.onDatagram(ep, marshalSeq(seqMsg{Kind: kindVoice, Seq: 1, Size: 40}))
	if got := counterValue(dep.Metrics(), "platform.wire_parse_err"); got < 5 {
		t.Fatalf("wire_parse_err = %d, want >= 5", got)
	}
	if got := counterValue(dep.Metrics(), "platform.wire_unknown_kind"); got < 1 {
		t.Fatalf("wire_unknown_kind = %d, want >= 1", got)
	}
}

// TestCtrlOversizeAssetRequestCapped pins the unbounded-allocation fix: a
// 4-byte asset-size field could demand a multi-GiB response buffer; the
// control server now refuses anything over the client reader's bound,
// secure.MaxMsgLen (a larger response would only be dropped there), and
// counts it.
func TestCtrlOversizeAssetRequestCapped(t *testing.T) {
	dep := NewDeployment(simtime.NewScheduler(), 1)
	cs := &ctrlSession{srv: &CtrlServer{dep: dep, profile: Get(VRChat), be: dep.Backend(VRChat)}}
	for i, n := range []uint32{0xffffffff, secure.MaxMsgLen + 1} {
		body, err := marshalCtrlReq(reqAsset, "u1", "room-1", binary.BigEndian.AppendUint32(nil, n))
		if err != nil {
			t.Fatal(err)
		}
		// Before the cap this allocated up to 4 GiB (and with a response,
		// marshaled it); now it must return after counting, without
		// touching cs.sess.
		cs.onMsg(secure.MsgRequest, body)
		if got := counterValue(dep.Metrics(), "platform.ctrl_oversize_req"); got != int64(i+1) {
			t.Fatalf("%d-byte request: ctrl_oversize_req = %d, want %d", n, got, i+1)
		}
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
