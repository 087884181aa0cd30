package obs

import (
	"sort"
	"strings"
	"testing"
	"time"
)

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

// TestDurationsObserveAllocFree: observing into a Durations, as the
// fabric does per hop, allocates nothing.
func TestDurationsObserveAllocFree(t *testing.T) {
	var h Durations
	if avg := testing.AllocsPerRun(1000, func() {
		h.Observe(5 * time.Millisecond)
	}); avg != 0 {
		t.Fatalf("Observe allocates %.2f objects/op, want 0", avg)
	}
}
