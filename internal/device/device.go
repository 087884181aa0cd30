// Package device models the client hardware: Quest 2 (untethered), VIVE
// Cosmos (tethered), and a gaming PC, together with per-platform rendering
// cost models. Its sampler is the lab's OVR-Metrics-Tool equivalent,
// producing the FPS, stale-frame, CPU/GPU-utilization, memory, and battery
// series behind Figures 7, 8, 9 and 12.
//
// The mechanism: each platform has a per-frame CPU and GPU cost that grows
// with the number of avatars in the scene (local rendering!). When the
// binding resource exceeds the refresh budget, the frame rate drops below
// the display refresh and the shortfall surfaces as stale frames — exactly
// the local-rendering signature the paper identifies (§6).
package device

import (
	"math"
	"math/rand"
	"strconv"
	"time"

	"github.com/svrlab/svrlab/internal/obs"
	"github.com/svrlab/svrlab/internal/simtime"
)

// Class describes a device family.
type Class struct {
	Name       string
	RefreshHz  float64
	Tethered   bool
	MemTotalMB float64
	// DisplayW/H is the panel resolution per eye.
	DisplayW, DisplayH int
}

// The paper's three client devices (§3.2).
var (
	Quest2 = Class{Name: "Oculus Quest 2", RefreshHz: 72, MemTotalMB: 6144, DisplayW: 1832, DisplayH: 1920}
	// ViveCosmos renders on the attached PC, so it sustains a higher
	// refresh; its utilization figures describe the PC.
	ViveCosmos = Class{Name: "HTC VIVE Cosmos", RefreshHz: 90, Tethered: true, MemTotalMB: 16384, DisplayW: 1440, DisplayH: 1700}
	PC         = Class{Name: "PC (i7-7700K + GTX 1070)", RefreshHz: 60, Tethered: true, MemTotalMB: 16384, DisplayW: 1920, DisplayH: 1080}
)

// Resolution is an application render resolution (W×H per eye).
type Resolution struct{ W, H int }

func (r Resolution) String() string {
	if r.W == 0 {
		return "-"
	}
	return strconv.Itoa(r.W) + "×" + strconv.Itoa(r.H)
}

// CostModel is a platform's rendering cost on Quest 2. Per-frame costs are
// in milliseconds; n is the number of avatars in the scene (including the
// user's own).
type CostModel struct {
	BaseCPUms, PerAvatarCPUms, QuadCPUms float64
	BaseGPUms, PerAvatarGPUms            float64
	BaseMemMB, PerAvatarMemMB            float64
	// Render resolution chosen by the application (Table 3).
	Res Resolution
	// BatteryBasePctPerMin is drained regardless of load; utilization adds
	// to it.
	BatteryBasePctPerMin float64
}

// CPUms returns the per-frame CPU cost with n avatars.
func (m *CostModel) CPUms(n int) float64 {
	fn := float64(n)
	return m.BaseCPUms + m.PerAvatarCPUms*fn + m.QuadCPUms*fn*fn
}

// GPUms returns the per-frame GPU cost with n avatars.
func (m *CostModel) GPUms(n int) float64 {
	return m.BaseGPUms + m.PerAvatarGPUms*float64(n)
}

// pipelineFactor accounts for compositor and synchronization overhead on
// top of the binding resource; it keeps the binding resource's utilization
// under 100% when the frame rate is capped by it.
const pipelineFactor = 1.15

// Headset is a running device instance.
type Headset struct {
	Class Class
	Cost  CostModel

	// AvatarsInScene is the current render load (set by the platform
	// client each tick).
	AvatarsInScene int
	// ExtraCPUms is transient extra per-frame CPU work (e.g. Worlds'
	// missing-data recovery processing under downlink pressure, §8.1).
	ExtraCPUms float64
	// GPUReliefms reduces per-frame GPU work (stale-frame reuse, §8.1).
	GPUReliefms float64

	battery float64
	rng     *rand.Rand
}

// NewHeadset creates a fully charged device.
func NewHeadset(class Class, cost CostModel, rng *rand.Rand) *Headset {
	return &Headset{Class: class, Cost: cost, battery: 100, rng: rng}
}

// Sample is one OVR-Metrics-style reading.
type Sample struct {
	T          time.Duration
	FPS        float64
	StalePerS  float64
	CPUPct     float64
	GPUPct     float64
	MemMB      float64
	BatteryPct float64
}

// Instant computes the device state for the current load. dt is the span
// the sample covers (battery drains over it). Gaussian measurement noise is
// applied as a real sampler would show.
func (h *Headset) Instant(t time.Duration, dt time.Duration) Sample {
	n := h.AvatarsInScene
	cpu, gpu, fps := h.frame()
	noise := func(sd float64) float64 {
		if h.rng == nil {
			return 0
		}
		return h.rng.NormFloat64() * sd
	}
	fps = clamp(fps+noise(0.8), 1, h.Class.RefreshHz)
	stale := h.Class.RefreshHz - fps
	if stale < 0 {
		stale = 0
	}
	cpuPct := clamp(cpu*fps/10+noise(2), 0, 100) // ms/frame × frame/s ÷ 1000ms × 100
	gpuPct := clamp(gpu*fps/10+noise(2), 0, 100)
	mem := h.Cost.BaseMemMB + h.Cost.PerAvatarMemMB*float64(n) + noise(5)
	if mem > h.Class.MemTotalMB {
		mem = h.Class.MemTotalMB
	}
	drainPerMin := h.Cost.BatteryBasePctPerMin + 0.4*(cpuPct+gpuPct)/200
	h.battery -= drainPerMin * dt.Minutes()
	if h.battery < 0 {
		h.battery = 0
	}
	return Sample{T: t, FPS: fps, StalePerS: stale, CPUPct: cpuPct, GPUPct: gpuPct, MemMB: mem, BatteryPct: h.battery}
}

// Battery returns the remaining charge percentage.
func (h *Headset) Battery() float64 { return h.battery }

// FPSEstimate computes the noise-free frame rate for the current load
// without mutating any state (no battery drain). Used by clients to model
// frame-synchronized display latency.
func (h *Headset) FPSEstimate() float64 {
	_, _, fps := h.frame()
	return fps
}

// frame is the frame-rate model for the current load: the per-frame CPU
// and GPU cost in ms (GPU work floored at 1 ms) and the noise-free frame
// rate, the refresh rate unless the binding resource, with pipeline
// overhead, overruns the frame budget.
func (h *Headset) frame() (cpu, gpu, fps float64) {
	cpu = h.Cost.CPUms(h.AvatarsInScene) + h.ExtraCPUms
	gpu = h.Cost.GPUms(h.AvatarsInScene) - h.GPUReliefms
	if gpu < 1 {
		gpu = 1
	}
	frameMs := pipelineFactor * math.Max(cpu, gpu)
	if budget := 1000 / h.Class.RefreshHz; frameMs > budget {
		return cpu, gpu, 1000 / frameMs
	}
	return cpu, gpu, h.Class.RefreshHz
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

// Monitor samples a headset once per second on the scheduler — the OVR
// Metrics Tool equivalent.
type Monitor struct {
	// Samples holds every reading, the only record of how many were taken.
	Samples []Sample
}

// Attach starts per-second sampling.
func Attach(s *simtime.Scheduler, h *Headset) *Monitor {
	m := &Monitor{}
	s.Ticker(time.Second, func() {
		m.Samples = append(m.Samples, h.Instant(s.Now(), time.Second))
	})
	return m
}

// FlushMetrics adds the samples taken to r's "device.samples" counter. A
// monitor enlisted on the lab's fabric (netsim.Network.RegisterEndpoint) is
// folded once, at lab teardown.
func (m *Monitor) FlushMetrics(r *obs.Registry) {
	r.Add("device.samples", int64(len(m.Samples)))
}

// Window returns the samples in [from, to).
func (m *Monitor) Window(from, to time.Duration) []Sample {
	var out []Sample
	for _, s := range m.Samples {
		if s.T >= from && s.T < to {
			out = append(out, s)
		}
	}
	return out
}

// BatteryDrainPerMin reports the battery percentage drained per minute over
// [from, to), from the first and last samples inside the window. Measuring
// from a window-start snapshot (instead of assuming a full charge at t=0)
// excludes warm-up drain and any initial charge below 100%. It returns 0 if
// the window holds fewer than two samples.
func (m *Monitor) BatteryDrainPerMin(from, to time.Duration) float64 {
	w := m.Window(from, to)
	if len(w) < 2 {
		return 0
	}
	first, last := w[0], w[len(w)-1]
	span := last.T - first.T
	if span <= 0 {
		return 0
	}
	return (first.BatteryPct - last.BatteryPct) / span.Minutes()
}

// Means averages FPS/CPU/GPU/memory over [from, to).
func (m *Monitor) Means(from, to time.Duration) (fps, cpu, gpu, mem float64) {
	w := m.Window(from, to)
	if len(w) == 0 {
		return 0, 0, 0, 0
	}
	for _, s := range w {
		fps += s.FPS
		cpu += s.CPUPct
		gpu += s.GPUPct
		mem += s.MemMB
	}
	n := float64(len(w))
	return fps / n, cpu / n, gpu / n, mem / n
}
