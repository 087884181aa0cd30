package device

import (
	"math/rand"
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/simtime"
)

// testCost is a CPU-bound model that holds 72 FPS up to ~4 avatars and
// degrades beyond.
func testCost() CostModel {
	return CostModel{
		BaseCPUms: 8, PerAvatarCPUms: 1.0,
		BaseGPUms: 5, PerAvatarGPUms: 0.3,
		BaseMemMB: 1200, PerAvatarMemMB: 10,
		Res:                  Resolution{1440, 1584},
		BatteryBasePctPerMin: 0.3,
	}
}

func TestFullFPSAtLowLoad(t *testing.T) {
	h := NewHeadset(Quest2, testCost(), nil)
	h.AvatarsInScene = 1
	s := h.Instant(0, time.Second)
	if s.FPS != 72 {
		t.Fatalf("FPS = %v at 1 avatar, want 72", s.FPS)
	}
	if s.StalePerS != 0 {
		t.Fatalf("stale = %v, want 0", s.StalePerS)
	}
}

func TestFPSDegradesWithAvatars(t *testing.T) {
	h := NewHeadset(Quest2, testCost(), nil)
	var prev float64 = 73
	for _, n := range []int{1, 5, 10, 15, 20} {
		h.AvatarsInScene = n
		s := h.Instant(0, time.Second)
		if s.FPS > prev+1e-9 {
			t.Fatalf("FPS increased with load: n=%d fps=%v prev=%v", n, s.FPS, prev)
		}
		prev = s.FPS
	}
	h.AvatarsInScene = 15
	s := h.Instant(0, time.Second)
	if s.FPS >= 50 {
		t.Fatalf("FPS at 15 avatars = %v, want visible degradation", s.FPS)
	}
	if s.StalePerS < 10 {
		t.Fatalf("stale at 15 avatars = %v, want substantial", s.StalePerS)
	}
}

func TestUtilizationGrowsWithLoad(t *testing.T) {
	h := NewHeadset(Quest2, testCost(), nil)
	h.AvatarsInScene = 1
	lo := h.Instant(0, time.Second)
	h.AvatarsInScene = 15
	hi := h.Instant(0, time.Second)
	if hi.CPUPct <= lo.CPUPct {
		t.Fatalf("CPU did not grow: %v -> %v", lo.CPUPct, hi.CPUPct)
	}
	if hi.CPUPct > 100 || hi.GPUPct > 100 {
		t.Fatalf("utilization exceeds 100%%: %+v", hi)
	}
	if hi.MemMB-lo.MemMB < 100 {
		t.Fatalf("memory growth = %v MB for 14 avatars, want ~140", hi.MemMB-lo.MemMB)
	}
}

func TestExtraCPUReducesFPS(t *testing.T) {
	h := NewHeadset(Quest2, testCost(), nil)
	h.AvatarsInScene = 4
	base := h.Instant(0, time.Second)
	h.ExtraCPUms = 10
	loaded := h.Instant(0, time.Second)
	if loaded.FPS >= base.FPS {
		t.Fatalf("extra CPU work did not reduce FPS: %v -> %v", base.FPS, loaded.FPS)
	}
	if loaded.CPUPct <= base.CPUPct {
		t.Fatal("extra CPU work did not raise CPU util")
	}
}

func TestGPUReliefLowersGPUUtil(t *testing.T) {
	h := NewHeadset(Quest2, testCost(), nil)
	h.AvatarsInScene = 10
	base := h.Instant(0, time.Second)
	h.GPUReliefms = 3
	relieved := h.Instant(0, time.Second)
	if relieved.GPUPct >= base.GPUPct {
		t.Fatalf("GPU relief did not lower GPU util: %v -> %v", base.GPUPct, relieved.GPUPct)
	}
}

func TestBatteryDrains(t *testing.T) {
	h := NewHeadset(Quest2, testCost(), nil)
	h.AvatarsInScene = 15
	for i := 0; i < 600; i++ { // 10 minutes
		h.Instant(time.Duration(i)*time.Second, time.Second)
	}
	drained := 100 - h.Battery()
	// The paper: <10% battery over a 10-minute experiment.
	if drained <= 0 || drained >= 10 {
		t.Fatalf("battery drained %.1f%% in 10 min, want (0,10)", drained)
	}
}

func TestMonitorBatteryDrainPerMin(t *testing.T) {
	s := simtime.NewScheduler()
	h := NewHeadset(Quest2, testCost(), rand.New(rand.NewSource(7)))
	h.AvatarsInScene = 15
	m := Attach(s, h)
	s.RunUntil(60 * time.Second)

	drain := m.BatteryDrainPerMin(20*time.Second, 60*time.Second)
	if drain <= 0 {
		t.Fatalf("steady-window drain = %v, want > 0", drain)
	}
	// The window measurement must be anchored at the 20 s snapshot, not at a
	// full charge: drain inferred from 100% would overcount.
	w := m.Window(20*time.Second, 60*time.Second)
	first, last := w[0], w[len(w)-1]
	naive := (100 - last.BatteryPct) / (last.T - first.T).Minutes()
	if drain >= naive {
		t.Fatalf("window drain %v should be below full-charge-anchored %v", drain, naive)
	}
	// Cross-check against the raw endpoint samples.
	want := (first.BatteryPct - last.BatteryPct) / (last.T - first.T).Minutes()
	if drain != want {
		t.Fatalf("drain = %v, want %v", drain, want)
	}

	// Degenerate windows yield 0.
	if d := m.BatteryDrainPerMin(59*time.Second, 60*time.Second); d != 0 {
		t.Fatalf("single-sample window drain = %v, want 0", d)
	}
	if d := m.BatteryDrainPerMin(2*time.Minute, 3*time.Minute); d != 0 {
		t.Fatalf("empty window drain = %v, want 0", d)
	}
}

func TestMemoryCappedAtDeviceTotal(t *testing.T) {
	c := testCost()
	c.BaseMemMB = 6100
	h := NewHeadset(Quest2, c, nil)
	h.AvatarsInScene = 50
	s := h.Instant(0, time.Second)
	if s.MemMB > Quest2.MemTotalMB {
		t.Fatalf("memory %v exceeds device total", s.MemMB)
	}
}

func TestMonitorSamplesPerSecond(t *testing.T) {
	sched := simtime.NewScheduler()
	h := NewHeadset(Quest2, testCost(), rand.New(rand.NewSource(1)))
	h.AvatarsInScene = 3
	m := Attach(sched, h)
	sched.RunUntil(10 * time.Second)
	if len(m.Samples) != 10 {
		t.Fatalf("samples = %d, want 10", len(m.Samples))
	}
	fps, cpu, gpu, mem := m.Means(0, 11*time.Second)
	if fps < 65 || fps > 72 {
		t.Fatalf("mean fps = %v", fps)
	}
	if cpu <= 0 || gpu <= 0 || mem <= 0 {
		t.Fatalf("means = %v %v %v", cpu, gpu, mem)
	}
	if w := m.Window(3*time.Second, 6*time.Second); len(w) != 3 {
		t.Fatalf("window = %d samples", len(w))
	}
	if f, _, _, _ := m.Means(time.Hour, 2*time.Hour); f != 0 {
		t.Fatal("empty window means not zero")
	}
}

func TestTetheredClassHasHigherRefresh(t *testing.T) {
	if !ViveCosmos.Tethered || ViveCosmos.RefreshHz <= Quest2.RefreshHz {
		t.Fatal("VIVE should be tethered with higher refresh")
	}
	if Quest2.Tethered {
		t.Fatal("Quest 2 is untethered")
	}
}

func TestResolutionString(t *testing.T) {
	if (Resolution{1440, 1584}).String() != "1440×1584" {
		t.Fatalf("got %q", Resolution{1440, 1584}.String())
	}
	if (Resolution{}).String() != "-" {
		t.Fatal("zero resolution should render as -")
	}
}
