package world

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalizeAndAngularDiff(t *testing.T) {
	if NormalizeDeg(-90) != 270 {
		t.Fatalf("NormalizeDeg(-90) = %v", NormalizeDeg(-90))
	}
	if NormalizeDeg(720) != 0 {
		t.Fatalf("NormalizeDeg(720) = %v", NormalizeDeg(720))
	}
	if AngularDiff(350, 10) != 20 {
		t.Fatalf("AngularDiff(350,10) = %v", AngularDiff(350, 10))
	}
	if AngularDiff(0, 180) != 180 {
		t.Fatal("opposite angles should differ by 180")
	}
}

func TestPropertyAngularDiffBounds(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		d := AngularDiff(a, b)
		return d >= 0 && d <= 180 && math.Abs(AngularDiff(b, a)-d) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBearing(t *testing.T) {
	o := Vec2{0, 0}
	cases := []struct {
		to   Vec2
		want float64
	}{
		{Vec2{1, 0}, 0}, {Vec2{0, 1}, 90}, {Vec2{-1, 0}, 180}, {Vec2{0, -1}, 270},
	}
	for _, c := range cases {
		if got := Bearing(o, c.to); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Bearing to %v = %v, want %v", c.to, got, c.want)
		}
	}
}

func TestInViewportWedge(t *testing.T) {
	viewer := Pose{Pos: Vec2{0, 0}, Yaw: 0}
	// 150° wedge: targets within ±75°.
	if !InViewport(viewer, Vec2{1, 0}, 150) {
		t.Fatal("dead ahead not visible")
	}
	if !InViewport(viewer, Vec2{1, math.Tan(74 * math.Pi / 180)}, 150) {
		t.Fatal("74° off-axis should be visible in a 150° wedge")
	}
	if InViewport(viewer, Vec2{1, math.Tan(76 * math.Pi / 180)}, 150) {
		t.Fatal("76° off-axis should be outside a 150° wedge")
	}
	if InViewport(viewer, Vec2{-1, 0}, 150) {
		t.Fatal("behind the viewer should be invisible")
	}
	// Same position is always visible.
	if !InViewport(viewer, Vec2{0, 0}, 150) {
		t.Fatal("co-located target should be visible")
	}
}

func TestSnapTurnQuantization(t *testing.T) {
	p := Pose{Yaw: 0}
	p = SnapTurn(p, 1)
	if p.Yaw != 22.5 {
		t.Fatalf("one click = %v°", p.Yaw)
	}
	// 16 clicks = full circle (the §6.1 detection lever).
	p = Pose{Yaw: 90}
	p = SnapTurn(p, 16)
	if p.Yaw != 90 {
		t.Fatalf("16 clicks should return to start, got %v", p.Yaw)
	}
	p = SnapTurn(p, -2)
	if p.Yaw != 45 {
		t.Fatalf("negative clicks wrong: %v", p.Yaw)
	}
}

func TestSpaceClamp(t *testing.T) {
	s := Space{Size: 20}
	if c := s.Center(); c != (Vec2{10, 10}) {
		t.Fatalf("center = %+v", c)
	}
	p := s.Clamp(Pose{Pos: Vec2{25, -3}, Yaw: 400})
	if p.Pos.X != 20 || p.Pos.Y != 0 {
		t.Fatalf("position not clamped: %+v", p.Pos)
	}
	if p.Yaw != 40 {
		t.Fatalf("yaw not normalized: %v", p.Yaw)
	}
	if in := (Pose{Pos: Vec2{3, 17}, Yaw: 90}); s.Clamp(in) != in {
		t.Fatalf("a pose inside the room moved: %+v", s.Clamp(in))
	}
}

func TestViewportSavingFraction(t *testing.T) {
	// The paper's estimate: a 150° viewport can skip up to 1-150/360 ≈ 58%
	// of avatar data. With avatars uniformly around the viewer, the
	// invisible fraction should approach that.
	rng := rand.New(rand.NewSource(42))
	s := Space{Size: 20}
	viewer := Pose{Pos: s.Center(), Yaw: 0}
	const n = 2000
	visible := 0
	for i := 0; i < n; i++ {
		ang := rng.Float64() * 2 * math.Pi
		r := 2 + rng.Float64()*6
		if InViewport(viewer, s.Center().Add(Vec2{r * math.Cos(ang), r * math.Sin(ang)}), 150) {
			visible++
		}
	}
	saved := 1 - float64(visible)/n
	if saved < 0.54 || saved > 0.62 {
		t.Fatalf("saving fraction = %.2f, want ≈0.58", saved)
	}
}

func TestWalkerWandersWithinRoom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := Space{Size: 20}
	pose := Pose{Pos: s.Center()}
	w := NewWalker(rng, s, &pose)
	var moved float64
	prev := pose.Pos
	for i := 0; i < 600; i++ { // 60 s at 10 Hz
		w.Step(0.1)
		if pose.Pos.X < 0 || pose.Pos.X > 20 || pose.Pos.Y < 0 || pose.Pos.Y > 20 {
			t.Fatalf("walked out of room: %+v", pose.Pos)
		}
		moved += pose.Pos.Sub(prev).Len()
		prev = pose.Pos
	}
	// ~1.2 m/s for 60 s ≈ 72 m of path.
	if moved < 40 || moved > 100 {
		t.Fatalf("path length = %.1f m, want ~72", moved)
	}
}

func TestWalkerSetActiveFreezes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := Space{Size: 20}
	pose := Pose{Pos: s.Center()}
	w := NewWalker(rng, s, &pose)
	w.Step(0.1)
	w.SetActive(false)
	before := pose
	for i := 0; i < 10; i++ {
		w.Step(0.1)
	}
	if pose != before {
		t.Fatal("inactive walker moved")
	}
}

func TestVecOps(t *testing.T) {
	v := Vec2{3, 4}
	if v.Len() != 5 {
		t.Fatalf("Len = %v", v.Len())
	}
	if v.Add(Vec2{1, 1}) != (Vec2{4, 5}) {
		t.Fatal("Add wrong")
	}
	if v.Sub(Vec2{1, 1}) != (Vec2{2, 3}) {
		t.Fatal("Sub wrong")
	}
	if v.Scale(2) != (Vec2{6, 8}) {
		t.Fatal("Scale wrong")
	}
}

func TestPredictPoseExtrapolatesYawAndPosition(t *testing.T) {
	prev := Pose{Pos: Vec2{0, 0}, Yaw: 10}
	cur := Pose{Pos: Vec2{1, 0}, Yaw: 20} // +10°/s, +1m/s over 1s
	got := PredictPose(prev, 0, cur, 1, 1.5)
	if math.Abs(got.Yaw-25) > 1e-9 {
		t.Fatalf("predicted yaw = %v, want 25", got.Yaw)
	}
	if math.Abs(got.Pos.X-1.5) > 1e-9 {
		t.Fatalf("predicted x = %v, want 1.5", got.Pos.X)
	}
}

func TestPredictPoseShortestArcAcrossWrap(t *testing.T) {
	prev := Pose{Yaw: 350}
	cur := Pose{Yaw: 10} // +20° across the wrap in 1s
	got := PredictPose(prev, 0, cur, 1, 2)
	if math.Abs(got.Yaw-30) > 1e-9 {
		t.Fatalf("predicted yaw = %v, want 30 (shortest arc)", got.Yaw)
	}
}

func TestPredictPoseCapsSnapTurnRate(t *testing.T) {
	// A 180° snap between two 50ms samples would read as 3600°/s; the
	// predictor caps the rate so one stale sample can't spin the viewport.
	prev := Pose{Yaw: 0}
	cur := Pose{Yaw: 180}
	got := PredictPose(prev, 0, cur, 0.05, 0.2)
	// Capped at 180°/s over 150ms lead = +27°.
	if math.Abs(got.Yaw-207) > 1e-6 {
		t.Fatalf("predicted yaw = %v, want 207 (rate-capped)", got.Yaw)
	}
}

func TestPredictPoseDegenerateInputs(t *testing.T) {
	cur := Pose{Pos: Vec2{3, 4}, Yaw: 90}
	// No history (prevAt >= curAt): return current pose.
	if got := PredictPose(Pose{}, 5, cur, 5, 6); got != cur {
		t.Fatalf("no-history prediction = %+v", got)
	}
	// Lead time in the past: return current pose.
	if got := PredictPose(Pose{}, 0, cur, 1, 0.5); got != cur {
		t.Fatalf("past prediction = %+v", got)
	}
}
