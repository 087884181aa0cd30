// Package world models the shared virtual space: user poses on the floor
// plane, locomotion (walking, teleporting, and the 22.5°-per-controller-click
// turning the paper exploits in §6.1), and the viewport wedge geometry behind
// AltspaceVR's viewport-adaptive optimization.
package world

import (
	"math"
	"math/rand"
)

// Vec2 is a position on the floor plane, in meters.
type Vec2 struct {
	X, Y float64
}

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Len returns the Euclidean norm.
func (v Vec2) Len() float64 { return math.Hypot(v.X, v.Y) }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// TurnStepDeg is the yaw change per controller snap-turn operation: the
// paper observes avatars complete a full turn in 16 operations (360/16).
const TurnStepDeg = 22.5

// Pose is a user's position and facing direction.
type Pose struct {
	Pos Vec2
	Yaw float64 // degrees, [0, 360); 0 faces +X, counterclockwise
}

// NormalizeDeg maps any angle to [0, 360).
func NormalizeDeg(a float64) float64 {
	a = math.Mod(a, 360)
	if a < 0 {
		a += 360
	}
	return a
}

// AngularDiff returns the minimal absolute difference between two angles in
// degrees, in [0, 180].
func AngularDiff(a, b float64) float64 {
	d := math.Abs(NormalizeDeg(a) - NormalizeDeg(b))
	if d > 180 {
		d = 360 - d
	}
	return d
}

// Bearing returns the direction from one point to another in degrees.
func Bearing(from, to Vec2) float64 {
	return NormalizeDeg(math.Atan2(to.Y-from.Y, to.X-from.X) * 180 / math.Pi)
}

// InViewport reports whether a target position falls inside a viewer's
// horizontal wedge of the given total width (degrees). This is the geometry
// the AltspaceVR server model uses to decide which avatars to forward, and
// the geometry the §6.1 detection experiment measures from the outside.
// A target at the viewer's own position is always visible.
func InViewport(viewer Pose, target Vec2, widthDeg float64) bool {
	if target.Sub(viewer.Pos).Len() < 1e-9 {
		return true
	}
	return AngularDiff(viewer.Yaw, Bearing(viewer.Pos, target)) <= widthDeg/2
}

// SnapTurn rotates a pose by n controller clicks (positive = counter-
// clockwise).
func SnapTurn(p Pose, clicks int) Pose {
	p.Yaw = NormalizeDeg(p.Yaw + float64(clicks)*TurnStepDeg)
	return p
}

// maxPredictYawRate bounds the extrapolated turn rate (deg/s): a snap turn
// between two samples would otherwise read as an absurd angular velocity.
const maxPredictYawRate = 180.0

// PredictPose linearly extrapolates a pose to a future instant from its two
// most recent samples — the server-side viewport prediction that
// viewport-adaptive forwarding requires because delivery takes time (§6.1:
// "at time T, the server needs to predict users' viewport at T+t"). Yaw
// extrapolates along the shortest arc with a capped rate; position
// extrapolates linearly. With fewer than two samples (prevAt >= curAt) the
// current pose is returned unchanged.
func PredictPose(prev Pose, prevAtSec float64, cur Pose, curAtSec float64, atSec float64) Pose {
	dt := curAtSec - prevAtSec
	if dt <= 0 {
		return cur
	}
	lead := atSec - curAtSec
	if lead <= 0 {
		return cur
	}
	// Shortest-arc yaw delta in (-180, 180].
	dYaw := NormalizeDeg(cur.Yaw - prev.Yaw)
	if dYaw > 180 {
		dYaw -= 360
	}
	rate := dYaw / dt
	if rate > maxPredictYawRate {
		rate = maxPredictYawRate
	}
	if rate < -maxPredictYawRate {
		rate = -maxPredictYawRate
	}
	out := cur
	out.Yaw = NormalizeDeg(cur.Yaw + rate*lead)
	vel := cur.Pos.Sub(prev.Pos).Scale(1 / dt)
	out.Pos = cur.Pos.Add(vel.Scale(lead))
	return out
}

// Space is a square room: the floor a client's avatar moves on.
type Space struct {
	Size float64 // side length, meters
}

// Center returns the room's center point.
func (s Space) Center() Vec2 { return Vec2{s.Size / 2, s.Size / 2} }

// Clamp returns p with its position clamped into the room and its yaw
// normalized to [0, 360).
func (s Space) Clamp(p Pose) Pose {
	p.Pos.X = clamp(p.Pos.X, 0, s.Size)
	p.Pos.Y = clamp(p.Pos.Y, 0, s.Size)
	p.Yaw = NormalizeDeg(p.Yaw)
	return p
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// walkSpeedMps is a wandering user's walking speed.
const walkSpeedMps = 1.2

// Walker generates natural wandering motion: pick a waypoint, walk toward it
// at walking speed while facing the travel direction, then pick another.
type Walker struct {
	rng      *rand.Rand
	space    Space
	pose     *Pose
	waypoint Vec2
	active   bool
}

// NewWalker creates a motion generator that moves *pose around space.
func NewWalker(rng *rand.Rand, space Space, pose *Pose) *Walker {
	return &Walker{rng: rng, space: space, pose: pose, active: true}
}

// SetActive pauses or resumes motion (a user standing still keeps sending
// pose updates, just with static content — matching real clients).
func (w *Walker) SetActive(a bool) { w.active = a }

// Step advances the pose by dt seconds, clamped into the room.
func (w *Walker) Step(dt float64) {
	if !w.active {
		return
	}
	p := *w.pose
	to := w.waypoint.Sub(p.Pos)
	if to.Len() < 0.3 {
		w.waypoint = Vec2{w.rng.Float64() * w.space.Size, w.rng.Float64() * w.space.Size}
		to = w.waypoint.Sub(p.Pos)
	}
	dir := to.Scale(1 / to.Len())
	p.Pos = p.Pos.Add(dir.Scale(walkSpeedMps * dt))
	p.Yaw = Bearing(Vec2{}, dir)
	*w.pose = w.space.Clamp(p)
}
