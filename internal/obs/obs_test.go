package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Inc("a")
	r.Add("a", 5)
	r.SetMax("g", 1)
	var d Durations
	d.Observe(time.Second)
	r.AddDurations("h", &d)
	r.ObserveWall("w", time.Second)
	if n := len(r.Snapshot().Entries); n != 0 {
		t.Fatalf("nil registry snapshot has %d entries", n)
	}
}

func TestCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	r.Inc("c")
	r.Add("c", 9)
	r.SetMax("g", 3)
	r.SetMax("g", 1) // must not lower
	r.SetMax("g", 7)
	r.SetMax("neg", -2) // a new gauge starts at its first value, not at 0
	var d Durations
	d.Observe(3 * time.Millisecond)
	r.AddDurations("h", &d)
	d = Durations{}
	d.Observe(90 * time.Millisecond)
	r.AddDurations("h", &d)

	s := r.Snapshot()
	if got := s.Counter("c"); got != 10 {
		t.Fatalf("counter = %d", got)
	}
	if got := s.Counter("missing"); got != 0 {
		t.Fatalf("missing counter = %d", got)
	}
	g, ok := s.Get("g")
	if !ok || g.Kind != KindGauge || g.Gauge != 7 {
		t.Fatalf("gauge = %+v", g)
	}
	if g, _ := s.Get("neg"); g.Gauge != -2 {
		t.Fatalf("negative gauge = %+v", g)
	}
	h, ok := s.Get("h")
	if !ok || h.Kind != KindHistogram || h.Count != 2 {
		t.Fatalf("hist = %+v", h)
	}
	if h.SumMicro != 93_000 {
		t.Fatalf("hist sum = %d µs", h.SumMicro)
	}
	// 90 ms falls in the (50ms, 100ms] bucket; p95 upper bound is 100ms.
	if q := h.Quantile(0.95); q != 100*time.Millisecond {
		t.Fatalf("p95 = %v", q)
	}
}

func TestSnapshotSortedAndRendered(t *testing.T) {
	r := NewRegistry()
	r.Inc("z.last")
	r.Inc("a.first")
	r.SetMax("m.mid", 2.5)
	s := r.Snapshot()
	for i := 1; i < len(s.Entries); i++ {
		if s.Entries[i-1].Name >= s.Entries[i].Name {
			t.Fatalf("snapshot not name-sorted: %q before %q", s.Entries[i-1].Name, s.Entries[i].Name)
		}
	}
	out := s.String()
	if !strings.Contains(out, "a.first") || !strings.Contains(out, "max=2.5") {
		t.Fatalf("render:\n%s", out)
	}
	if (Snapshot{}).String() == "" {
		t.Fatal("empty snapshot renders nothing")
	}
}

func TestStableExcludesWallClockSeries(t *testing.T) {
	r := NewRegistry()
	r.Inc("det.counter")
	var d Durations
	d.Observe(time.Millisecond)
	r.AddDurations("det.hist", &d)
	r.ObserveWall("wall.hist", time.Millisecond)
	full := r.Snapshot()
	if _, ok := full.Get("wall.hist"); !ok {
		t.Fatal("wall series missing from full snapshot")
	}
	stable := full.Stable()
	if _, ok := stable.Get("wall.hist"); ok {
		t.Fatal("wall series survived Stable()")
	}
	if _, ok := stable.Get("det.hist"); !ok {
		t.Fatal("deterministic hist dropped by Stable()")
	}
}

// TestConcurrentOpsCommute drives one registry from many goroutines, each
// also folding a Durations of its own at its end as owners do at lab
// teardown, and checks the final snapshot is exact — the property that lets
// parallel sweep cells share a registry without breaking determinism.
func TestConcurrentOpsCommute(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var h Durations
			for i := 0; i < per; i++ {
				r.Inc("shared.counter")
				r.SetMax("shared.max", float64(w*per+i))
				h.Observe(time.Duration(i) * time.Microsecond)
			}
			r.AddDurations("shared.hist", &h)
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counter("shared.counter"); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	g, _ := s.Get("shared.max")
	if g.Gauge != float64(workers*per-1) {
		t.Fatalf("max = %v", g.Gauge)
	}
	h, _ := s.Get("shared.hist")
	if h.Count != workers*per || h.SumMicro != workers*per*(per-1)/2 {
		t.Fatalf("hist count = %d sum = %d", h.Count, h.SumMicro)
	}
	var bucketSum int64
	for _, b := range h.Buckets {
		bucketSum += b
	}
	if bucketSum != h.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, h.Count)
	}
}
