package avatar

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func samplePose() *Pose {
	p := &Pose{
		Head:  Joint{Pos: [3]float64{1.25, 1.7, -0.5}, Rot: QuatFromYawDeg(45)},
		Torso: Joint{Pos: [3]float64{1.25, 1.1, -0.5}, Rot: QuatFromYawDeg(40)},
		Hands: [2]Joint{
			{Pos: [3]float64{1.0, 1.3, -0.3}, Rot: QuatFromYawDeg(10)},
			{Pos: [3]float64{1.5, 1.3, -0.3}, Rot: QuatFromYawDeg(-10)},
		},
		Face: make([]uint8, 104),
	}
	for i := 0; i < 16; i++ {
		p.Body = append(p.Body, Joint{Pos: [3]float64{float64(i) * 0.1, 1, 0}, Rot: QuatFromYawDeg(float64(i))})
	}
	p.Fingers = [2][5]uint8{{10, 200, 210, 220, 230}, {50, 60, 70, 80, 90}}
	p.Face[ExprSmile] = 128
	return p
}

func TestQuatYawRoundTrip(t *testing.T) {
	for _, yaw := range []float64{0, 45, 90, -45, 179} {
		got := QuatFromYawDeg(yaw).YawDeg()
		if math.Abs(got-yaw) > 1e-9 {
			t.Fatalf("yaw %v -> %v", yaw, got)
		}
	}
}

var allCodecs = []*Codec{AltspaceVRCodec, HubsCodec, RecRoomCodec, VRChatCodec, WorldsCodec}

func TestCodecRoundTripAllPlatforms(t *testing.T) {
	src := samplePose()
	worlds := WorldsCodec.Encode(nil, src)
	var reused Pose
	dirty := make([]byte, len(worlds))
	for _, c := range allCodecs {
		b := c.Encode(nil, src)
		if len(b) != c.WireLen() {
			t.Fatalf("%s: encoded %d bytes, WireLen %d", c.Name, len(b), c.WireLen())
		}
		// Encoding into a used buffer writes every byte it appends, also
		// where the pose lacks the body joints and face the codec carries.
		for _, p := range []*Pose{src, {}} {
			for i := range dirty {
				dirty[i] = 0xff
			}
			if !bytes.Equal(c.Encode(dirty[:0], p), c.Encode(nil, p)) {
				t.Fatalf("%s: encoding into a used buffer kept its old bytes", c.Name)
			}
		}
		got := &Pose{}
		if err := c.Decode(b, got); err != nil {
			t.Fatalf("%s: decode: %v", c.Name, err)
		}
		checkDecoded(t, c, src, got)
		// A Worlds decode fills every field; decoding c's payload over it
		// must clear what c does not carry.
		if err := WorldsCodec.Decode(worlds, &reused); err != nil {
			t.Fatal(err)
		}
		if err := c.Decode(b, &reused); err != nil {
			t.Fatalf("%s: decode into a reused pose: %v", c.Name, err)
		}
		checkDecoded(t, c, src, &reused)
	}
}

// checkDecoded checks got, c's decode of src: what c carries survives
// quantization, and what c lacks reads zero or empty.
func checkDecoded(t *testing.T, c *Codec, src, got *Pose) {
	t.Helper()
	// Head position survives quantization to ~1mm.
	for i := 0; i < 3; i++ {
		if math.Abs(got.Head.Pos[i]-src.Head.Pos[i]) > 0.001 {
			t.Fatalf("%s: head pos %d drifted: %v vs %v", c.Name, i, got.Head.Pos[i], src.Head.Pos[i])
		}
	}
	// Yaw survives to ~0.1°.
	if math.Abs(got.Head.Rot.YawDeg()-45) > 0.1 {
		t.Fatalf("%s: head yaw = %v", c.Name, got.Head.Rot.YawDeg())
	}
	if c.HasArms {
		if math.Abs(got.Hands[0].Pos[0]-1.0) > 0.001 {
			t.Fatalf("%s: hand pos lost", c.Name)
		}
	} else if got.Hands != ([2]Joint{}) {
		t.Fatalf("%s: armless codec decoded hands", c.Name)
	}
	if len(got.Face) != c.FaceCoeffs {
		t.Fatalf("%s: decoded %d face coefficients, want %d", c.Name, len(got.Face), c.FaceCoeffs)
	}
	if c.FaceCoeffs > 0 && got.Face[ExprSmile] != 128 {
		t.Fatalf("%s: face coeff lost", c.Name)
	}
	if c.HasFingers && got.Fingers != src.Fingers {
		t.Fatalf("%s: fingers lost", c.Name)
	} else if !c.HasFingers && got.Fingers != ([2][5]uint8{}) {
		t.Fatalf("%s: fingerless codec decoded fingers", c.Name)
	}
	if len(got.Body) != c.BodyJoints {
		t.Fatalf("%s: decoded %d body joints, want %d", c.Name, len(got.Body), c.BodyJoints)
	}
	if c.BodyJoints > 0 && math.Abs(got.Body[3].Pos[0]-0.3) > 0.001 {
		t.Fatalf("%s: body joint lost", c.Name)
	}
}

// TestCodecAllocFree: encoding into a warmed buffer and decoding into a
// warmed pose allocate nothing, for every codec.
func TestCodecAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc bound only holds without -race")
	}
	src := samplePose()
	for _, c := range allCodecs {
		buf := c.Encode(nil, src)
		var got Pose
		if err := c.Decode(buf, &got); err != nil {
			t.Fatalf("%s: decode: %v", c.Name, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { buf = c.Encode(buf[:0], src) }); allocs != 0 {
			t.Errorf("%s: Encode allocates %.1f, want 0", c.Name, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = c.Decode(buf, &got) }); allocs != 0 {
			t.Errorf("%s: Decode allocates %.1f, want 0", c.Name, allocs)
		}
	}
}

func TestDecodeRejectsCorruptPayloads(t *testing.T) {
	b := VRChatCodec.Encode(nil, samplePose())
	var p Pose
	if err := VRChatCodec.Decode(b[:len(b)-1], &p); err == nil {
		t.Fatal("short payload accepted")
	}
	bad := append([]byte(nil), b...)
	bad[0] = 0
	if err := VRChatCodec.Decode(bad, &p); err == nil {
		t.Fatal("bad tag accepted")
	}
	if err := WorldsCodec.Decode(b, &p); err == nil {
		t.Fatal("cross-codec decode accepted")
	}
}

func TestEmbodimentComplexityOrdering(t *testing.T) {
	// The paper's central throughput observation: Worlds ≫ others, and the
	// armless/faceless avatars are cheapest (§5.2, Table 3).
	if !(WorldsCodec.BitrateBps() > 8*VRChatCodec.BitrateBps()) {
		t.Fatalf("Worlds bitrate %.0f not ≫ VRChat %.0f", WorldsCodec.BitrateBps(), VRChatCodec.BitrateBps())
	}
	if AltspaceVRCodec.WireLen() >= VRChatCodec.WireLen() {
		t.Fatal("armless AltspaceVR avatar should be smaller than VRChat")
	}
	if AltspaceVRCodec.WireLen() != HubsCodec.WireLen() {
		t.Fatal("AltspaceVR and Hubs share the same minimal embodiment")
	}
	if RecRoomCodec.FaceCoeffs == 0 {
		t.Fatal("Rec Room avatar has simple facial expressions")
	}
}

func TestGestureToExpressionMapping(t *testing.T) {
	p := samplePose()
	p.ApplyGesture(GestureThumbsUp)
	if p.Face[ExprSmile] != 255 || p.Face[ExprFrown] != 0 {
		t.Fatal("thumbs-up did not smile")
	}
	p.ApplyGesture(GestureThumbsDown)
	if p.Face[ExprFrown] != 255 || p.Face[ExprSmile] != 0 {
		t.Fatal("thumbs-down did not frown")
	}
	// Faceless avatar: gesture is a no-op, not a panic.
	q := &Pose{}
	q.ApplyGesture(GestureThumbsUp)
}

func TestRecognizeGesture(t *testing.T) {
	p := samplePose()
	// Thumb extended, fingers curled, palm up -> thumbs up.
	p.Fingers[0] = [5]uint8{10, 255, 255, 255, 255}
	p.Hands[0].Rot = QuatFromYawDeg(30)
	if g := RecognizeGesture(p); g != GestureThumbsUp {
		t.Fatalf("gesture = %v, want thumbs-up", g)
	}
	p.Hands[0].Rot = QuatFromYawDeg(-30)
	if g := RecognizeGesture(p); g != GestureThumbsDown {
		t.Fatalf("gesture = %v, want thumbs-down", g)
	}
	p.Fingers[0] = [5]uint8{200, 200, 200, 200, 200}
	p.Fingers[1] = [5]uint8{100, 100, 100, 100, 100}
	if g := RecognizeGesture(p); g != GestureNone {
		t.Fatalf("gesture = %v, want none", g)
	}
}

func TestPropertyQuantizationBounded(t *testing.T) {
	f := func(x, y, z, yaw float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) ||
			math.IsNaN(z) || math.IsInf(z, 0) || math.IsNaN(yaw) || math.IsInf(yaw, 0) {
			return true
		}
		// Restrict to the representable room size.
		clip := func(v float64) float64 { return math.Mod(v, 20) }
		src := &Pose{Head: Joint{Pos: [3]float64{clip(x), clip(y), clip(z)}, Rot: QuatFromYawDeg(math.Mod(yaw, 180))}}
		var got Pose
		if err := AltspaceVRCodec.Decode(AltspaceVRCodec.Encode(nil, src), &got); err != nil {
			return false
		}
		for i := 0; i < 3; i++ {
			if math.Abs(got.Head.Pos[i]-src.Head.Pos[i]) > 0.001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStringAndBitrate(t *testing.T) {
	if WorldsCodec.String() == "" {
		t.Fatal("empty String()")
	}
	// Worlds application bitrate should be in the hundreds of kbit/s, the
	// rest tens of kbit/s or less.
	if b := WorldsCodec.BitrateBps(); b < 200_000 || b > 400_000 {
		t.Fatalf("Worlds bitrate = %.0f", b)
	}
	if b := AltspaceVRCodec.BitrateBps(); b > 20_000 {
		t.Fatalf("AltspaceVR bitrate = %.0f", b)
	}
}
