package obs

import (
	"sort"
	"strings"
	"testing"
	"time"
)

// TestHandleStringEquivalence: handle ops and string ops land in the same
// slot, and a folded Durations in the same histogram as ObserveDuration, so
// converting a call site to a handle never changes a snapshot.
func TestHandleStringEquivalence(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mixed.counter")
	c.Inc()
	r.Inc("mixed.counter")
	c.Add(3)
	r.Add("mixed.counter", 5)

	var d Durations
	d.Observe(3 * time.Millisecond)
	r.AddDurations("mixed.hist", &d)
	r.ObserveDuration("mixed.hist", 90*time.Millisecond)

	g := r.MaxGauge("mixed.max")
	g.Set(2)
	r.SetMax("mixed.max", 7)
	g.Set(4) // must not lower

	s := r.Snapshot()
	if got := s.Counter("mixed.counter"); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	he, ok := s.Get("mixed.hist")
	if !ok || he.Count != 2 || he.SumMicro != 93_000 {
		t.Fatalf("hist = %+v", he)
	}
	ge, ok := s.Get("mixed.max")
	if !ok || ge.Gauge != 7 {
		t.Fatalf("max = %+v", ge)
	}
}

// TestNilRegistryHandles: handles minted from a nil registry (metrics
// disabled) are inert but safe, so hot paths never branch on enablement.
func TestNilRegistryHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(9)
	var d Durations
	d.Observe(time.Second)
	r.AddDurations("h", &d)
	r.MaxGauge("g").Set(1)
	var zeroC Counter
	zeroC.Inc() // zero-value handles must also be safe
	var zeroG MaxGauge
	zeroG.Set(1)
	if n := len(r.Snapshot().Entries); n != 0 {
		t.Fatalf("nil registry snapshot has %d entries", n)
	}
}

// TestAddDurationsKeepsEmptyRow: folding an empty Durations still creates
// the histogram, so a snapshot of a quiet run lists it with n=0, and the
// owner's tally is left as it was.
func TestAddDurationsKeepsEmptyRow(t *testing.T) {
	r := NewRegistry()
	var d Durations
	r.AddDurations("quiet.hist", &d)
	e, ok := r.Snapshot().Get("quiet.hist")
	if !ok || e.Kind != KindHistogram || e.Count != 0 || len(e.Buckets) != len(durBounds)+1 {
		t.Fatalf("empty fold = %+v, %v", e, ok)
	}
	if !strings.Contains(r.Snapshot().String(), "quiet.hist  n=0") {
		t.Fatalf("snapshot lacks the n=0 row:\n%s", r.Snapshot())
	}
	d.Observe(7 * time.Microsecond)
	r.AddDurations("quiet.hist", &d)
	r.AddDurations("quiet.hist", &d)
	if e, _ := r.Snapshot().Get("quiet.hist"); e.Count != 2 || e.SumMicro != 14 || e.Buckets[3] != 2 || d.count != 1 {
		t.Fatalf("two folds of one observation = %+v, tally %+v", e, d)
	}
}

// TestDurationsBucketIsSearch: Observe's bucket lookup agrees with a binary
// search of durBounds at and around every bound, at zero, for negative
// durations and past the last bound.
func TestDurationsBucketIsSearch(t *testing.T) {
	values := []int64{-5, 0, 1 << 40, 1<<63/1000 - 1}
	for _, b := range durBounds {
		values = append(values, b-1, b, b+1)
	}
	for _, us := range values {
		var d Durations
		d.Observe(time.Duration(us) * time.Microsecond)
		want := sort.Search(len(durBounds), func(i int) bool { return max(us, 0) <= durBounds[i] })
		if d.buckets[want] != 1 {
			t.Errorf("%dµs landed in buckets %v, want index %d", us, d.buckets, want)
		}
	}
}

// TestResolvedButUnsetGaugeAbsent: merely minting a MaxGauge handle (as
// stacks do at construction) must not create a snapshot entry; gauges appear
// only once something is recorded, matching the old string-API behaviour.
func TestResolvedButUnsetGaugeAbsent(t *testing.T) {
	r := NewRegistry()
	g := r.MaxGauge("never.set")
	if _, ok := r.Snapshot().Get("never.set"); ok {
		t.Fatal("unset gauge leaked into snapshot")
	}
	g.Set(3)
	e, ok := r.Snapshot().Get("never.set")
	if !ok || e.Gauge != 3 {
		t.Fatalf("gauge after first Set = %+v, %v", e, ok)
	}
}

// TestHandleOpsAllocFree pins the whole point of handles: recording through
// one, or into a Durations, is allocation-free (the string path allocates on
// map lookups under lock contention and name interning).
func TestHandleOpsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot.counter")
	var h Durations
	g := r.MaxGauge("hot.max")
	if avg := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		h.Observe(5 * time.Millisecond)
		g.Set(1)
	}); avg != 0 {
		t.Fatalf("handle ops allocate %.2f objects/op, want 0", avg)
	}
}

// TestHandleConcurrentCommute: the shared-registry determinism contract must
// survive the handle conversion — atomic handle ops from many goroutines,
// and each goroutine's own Durations folded in at its end, yield an exact
// final snapshot.
func TestHandleConcurrentCommute(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	c := r.Counter("shared.counter")
	g := r.MaxGauge("shared.max")
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer func() { done <- struct{}{} }()
			var h Durations
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(float64(w*per + i))
				h.Observe(time.Duration(i) * time.Microsecond)
			}
			r.AddDurations("shared.hist", &h)
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	s := r.Snapshot()
	if got := s.Counter("shared.counter"); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	ge, _ := s.Get("shared.max")
	if ge.Gauge != float64(workers*per-1) {
		t.Fatalf("max = %v", ge.Gauge)
	}
	he, _ := s.Get("shared.hist")
	if he.Count != workers*per || he.SumMicro != workers*per*(per-1)/2 {
		t.Fatalf("hist count = %d sum = %d", he.Count, he.SumMicro)
	}
}
