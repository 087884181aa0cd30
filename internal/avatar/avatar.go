// Package avatar models avatar embodiment: what each platform tracks (head,
// hands, torso, fingers, facial blendshapes), how it serializes the data,
// and how controller gestures map to facial expressions (the Horizon Worlds
// thumbs-up/down behaviour of Figure 5).
//
// Avatar complexity is the paper's dominant throughput factor (§5.2): the
// platforms' data rates differ mainly because their avatars track different
// feature sets at different rates. The codecs here serialize real quantized
// pose data so that wire sizes — and therefore every throughput table —
// follow from the embodiment model rather than from hardcoded byte counts.
package avatar

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Quat is a unit quaternion.
type Quat struct {
	W, X, Y, Z float64
}

// QuatFromYawDeg builds the quaternion for a rotation of yaw degrees about
// the vertical axis.
func QuatFromYawDeg(yaw float64) Quat {
	h := yaw * math.Pi / 360 // half angle in radians
	return Quat{W: math.Cos(h), Y: math.Sin(h)}
}

// YawDeg recovers the yaw (about vertical) encoded in the quaternion.
func (q Quat) YawDeg() float64 {
	return math.Atan2(q.Y, q.W) * 360 / math.Pi
}

// Joint is one tracked body part: position in meters, orientation.
type Joint struct {
	Pos [3]float64
	Rot Quat
}

// Expression indices for the blendshape vector.
const (
	ExprSmile = iota
	ExprFrown
	ExprMouthOpen
	ExprBrowUp
	exprBase // platform-specific coefficients follow
)

// Pose is the full tracked state of an avatar at one instant. Platforms
// serialize subsets of it.
type Pose struct {
	Head  Joint
	Hands [2]Joint
	Torso Joint
	// Extra upper-body joints (shoulders, elbows, spine...) tracked only by
	// high-fidelity avatars (Worlds).
	Body []Joint
	// Fingers are per-hand curl amounts 0..255 (Worlds hand tracking).
	Fingers [2][5]uint8
	// Face is a blendshape coefficient vector 0..255.
	Face []uint8
}

// Gesture is a controller gesture recognizable by hand-motion tracking.
type Gesture int

// Gestures the Worlds model recognizes (Figure 5).
const (
	GestureNone Gesture = iota
	GestureThumbsUp
	GestureThumbsDown
	GestureWave
	GesturePoint
)

// ApplyGesture maps a recognized gesture onto facial expression coefficients
// — the Worlds behaviour where a thumbs-up makes the avatar smile.
func (p *Pose) ApplyGesture(g Gesture) {
	if len(p.Face) < exprBase {
		return
	}
	switch g {
	case GestureThumbsUp:
		p.Face[ExprSmile] = 255
		p.Face[ExprFrown] = 0
	case GestureThumbsDown:
		p.Face[ExprSmile] = 0
		p.Face[ExprFrown] = 255
	case GestureWave:
		p.Face[ExprSmile] = 160
	case GesturePoint:
		p.Face[ExprBrowUp] = 200
	}
}

// RecognizeGesture classifies a gesture from hand joints, mimicking
// controller-pose heuristics: a hand held high with thumb finger extended
// and others curled reads as thumbs-up/down by vertical orientation.
func RecognizeGesture(p *Pose) Gesture {
	for hand := 0; hand < 2; hand++ {
		f := p.Fingers[hand]
		// Thumb extended (low curl), all others curled (high curl).
		if f[0] < 64 && f[1] > 192 && f[2] > 192 && f[3] > 192 && f[4] > 192 {
			if p.Hands[hand].Rot.YawDeg() >= 0 {
				return GestureThumbsUp
			}
			return GestureThumbsDown
		}
	}
	return GestureNone
}

// quantization ranges: positions ±20.48 m at 1/1600 m resolution,
// quaternion components in ±1 at 1/32767.
const posScale = 1600.0

func quantPos(v float64) int16 {
	q := v * posScale
	if q > math.MaxInt16 {
		q = math.MaxInt16
	}
	if q < math.MinInt16 {
		q = math.MinInt16
	}
	return int16(math.Round(q))
}

func dequantPos(q int16) float64 { return float64(q) / posScale }

func quantRot(v float64) int16 {
	if v > 1 {
		v = 1
	}
	if v < -1 {
		v = -1
	}
	return int16(math.Round(v * 32767))
}

func dequantRot(q int16) float64 { return float64(q) / 32767 }

const jointWireLen = 14 // 3×int16 position + 4×int16 quaternion

func putJoint(buf []byte, j Joint) {
	binary.LittleEndian.PutUint16(buf[0:], uint16(quantPos(j.Pos[0])))
	binary.LittleEndian.PutUint16(buf[2:], uint16(quantPos(j.Pos[1])))
	binary.LittleEndian.PutUint16(buf[4:], uint16(quantPos(j.Pos[2])))
	binary.LittleEndian.PutUint16(buf[6:], uint16(quantRot(j.Rot.W)))
	binary.LittleEndian.PutUint16(buf[8:], uint16(quantRot(j.Rot.X)))
	binary.LittleEndian.PutUint16(buf[10:], uint16(quantRot(j.Rot.Y)))
	binary.LittleEndian.PutUint16(buf[12:], uint16(quantRot(j.Rot.Z)))
}

func getJoint(buf []byte) Joint {
	var j Joint
	j.Pos[0] = dequantPos(int16(binary.LittleEndian.Uint16(buf[0:])))
	j.Pos[1] = dequantPos(int16(binary.LittleEndian.Uint16(buf[2:])))
	j.Pos[2] = dequantPos(int16(binary.LittleEndian.Uint16(buf[4:])))
	j.Rot.W = dequantRot(int16(binary.LittleEndian.Uint16(buf[6:])))
	j.Rot.X = dequantRot(int16(binary.LittleEndian.Uint16(buf[8:])))
	j.Rot.Y = dequantRot(int16(binary.LittleEndian.Uint16(buf[10:])))
	j.Rot.Z = dequantRot(int16(binary.LittleEndian.Uint16(buf[12:])))
	return j
}

// Codec serializes the platform-specific subset of a pose.
type Codec struct {
	Name string
	// Feature set.
	HasArms    bool
	FaceCoeffs int // 0 = no facial expression
	BodyJoints int // extra upper-body joints beyond head/hands/torso
	HasFingers bool
	// UpdateHz is the pose transmit rate the platform uses.
	UpdateHz int
}

// WireLen returns the encoded size for this codec.
func (c *Codec) WireLen() int {
	n := 2            // format tag + codec version
	n += jointWireLen // head
	n += jointWireLen // torso
	if c.HasArms {
		n += 2 * jointWireLen
	}
	n += c.BodyJoints * jointWireLen
	if c.HasFingers {
		n += 10
	}
	n += c.FaceCoeffs
	return n
}

// Encode appends the codec's feature subset of p to dst and returns the
// extended slice. It writes every byte it appends, so dst may be a reused
// buffer.
func (c *Codec) Encode(dst []byte, p *Pose) []byte {
	start := len(dst)
	dst = slices.Grow(dst, c.WireLen())[:start+c.WireLen()]
	out := dst[start:]
	out[0] = 0xA7 // format tag
	out[1] = 1    // version
	off := 2
	putJoint(out[off:], p.Head)
	off += jointWireLen
	putJoint(out[off:], p.Torso)
	off += jointWireLen
	if c.HasArms {
		putJoint(out[off:], p.Hands[0])
		off += jointWireLen
		putJoint(out[off:], p.Hands[1])
		off += jointWireLen
	}
	for i := 0; i < c.BodyJoints; i++ {
		var j Joint
		if i < len(p.Body) {
			j = p.Body[i]
		}
		putJoint(out[off:], j)
		off += jointWireLen
	}
	if c.HasFingers {
		copy(out[off:], p.Fingers[0][:])
		copy(out[off+5:], p.Fingers[1][:])
		off += 10
	}
	n := copy(out[off:], p.Face[:min(len(p.Face), c.FaceCoeffs)])
	clear(out[off+n:])
	return dst
}

var errBadAvatar = errors.New("avatar: malformed pose payload")

// Decode parses a payload produced by the same codec into p. It reuses
// p.Body and p.Face and zeroes every field the codec does not carry, so
// one Pose can take every update. On error p is unchanged.
func (c *Codec) Decode(b []byte, p *Pose) error {
	if len(b) != c.WireLen() || b[0] != 0xA7 || b[1] != 1 {
		return errBadAvatar
	}
	off := 2
	p.Head = getJoint(b[off:])
	off += jointWireLen
	p.Torso = getJoint(b[off:])
	off += jointWireLen
	p.Hands = [2]Joint{}
	if c.HasArms {
		p.Hands[0] = getJoint(b[off:])
		off += jointWireLen
		p.Hands[1] = getJoint(b[off:])
		off += jointWireLen
	}
	p.Body = p.Body[:0]
	for i := 0; i < c.BodyJoints; i++ {
		p.Body = append(p.Body, getJoint(b[off:]))
		off += jointWireLen
	}
	p.Fingers = [2][5]uint8{}
	if c.HasFingers {
		copy(p.Fingers[0][:], b[off:off+5])
		copy(p.Fingers[1][:], b[off+5:off+10])
		off += 10
	}
	p.Face = append(p.Face[:0], b[off:off+c.FaceCoeffs]...)
	return nil
}

// The five platform embodiments, calibrated against Table 3's avatar
// throughput column and the Figure 4 feature comparison.
var (
	// AltspaceVRCodec: cartoon avatar, no arms, no facial expression — the
	// simplest embodiment and the lowest avatar bitrate (~11 kbit/s).
	AltspaceVRCodec = &Codec{Name: "altspacevr", UpdateHz: 22}
	// HubsCodec: similar embodiment to AltspaceVR (no arms, no face); the
	// higher measured rate comes from HTTPS framing, not the avatar.
	HubsCodec = &Codec{Name: "hubs", UpdateHz: 30}
	// RecRoomCodec: no arms but simple expressions at a fast tick.
	RecRoomCodec = &Codec{Name: "recroom", FaceCoeffs: 8, UpdateHz: 60}
	// VRChatCodec: full upper body incl. arms and expressive face.
	VRChatCodec = &Codec{Name: "vrchat", HasArms: true, FaceCoeffs: 16, UpdateHz: 30}
	// WorldsCodec: human-like avatar — extra upper-body joints, finger
	// curls, rich blendshapes, 90 Hz — an order of magnitude more data.
	WorldsCodec = &Codec{Name: "worlds", HasArms: true, FaceCoeffs: 104, BodyJoints: 16, HasFingers: true, UpdateHz: 90}
)

// BitrateBps estimates the codec's application-layer bitrate (payload only).
func (c *Codec) BitrateBps() float64 {
	return float64(c.WireLen() * 8 * c.UpdateHz)
}

func (c *Codec) String() string {
	return fmt.Sprintf("%s(%dB @%dHz)", c.Name, c.WireLen(), c.UpdateHz)
}
