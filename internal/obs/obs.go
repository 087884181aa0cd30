// Package obs is the lab's observability substrate: a per-Lab registry of
// named counters, max-gauges, and bounded duration histograms.
//
// There is deliberately no package-level state. Every experiment cell owns
// (or is handed) a *Registry, mirroring the cell-isolation contract in
// DESIGN.md §4: sharing one registry across parallel sweep cells is safe
// because every mutating operation commutes exactly — int64 adds, int64
// histogram bucket/sum adds, and float64 max — so a snapshot taken after
// all cells finish is byte-identical regardless of worker count or
// interleaving. The one escape hatch is wall-clock timing (ObserveWall),
// which is inherently nondeterministic; those series are flagged volatile
// and excluded by Snapshot.Stable, which determinism tests compare.
//
// All methods are nil-safe: a nil *Registry discards every operation, so
// instrumented packages never need to guard call sites.
//
// Two call styles coexist. The string-keyed methods (Inc, Add, SetMax,
// ObserveWall) take the registry mutex and a map lookup per call and are
// meant for cold paths: platform errors, audit coverage, sweep cells.
// Everything counted per packet, per record or per frame is held by its
// owner in plain fields, with no lock and no shared cache line, and folded
// in once at lab teardown: the fabric's ledger and its Durations, and each
// transport stack, TLS session, voice stream and headset monitor (see
// netsim.Network.FlushMetrics). Adds, max and folded sums all commute, so
// both styles preserve the shared-registry byte-identity contract.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"time"
)

// durBounds are histogram bucket upper bounds in microseconds: a 1-2-5
// sequence from 1µs to 10s, wide enough for both per-hop queueing delay
// and whole-connection stalls. A final implicit +Inf bucket catches the
// rest.
var durBounds = [...]int64{
	1, 2, 5, 10, 20, 50, 100, 200, 500,
	1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000,
	1_000_000, 2_000_000, 5_000_000, 10_000_000,
}

// Durations is a duration histogram with a single owner: plain fields, no
// lock and no atomics. A hot path observes into its own Durations and
// folds it into a registry with AddDurations; the registry keeps its
// histograms in the same type under its mutex.
type Durations struct {
	count   int64
	sum     int64                     // microseconds
	buckets [len(durBounds) + 1]int64 // per durBounds bucket, then +Inf
}

// durIndex[n] is the first durBounds index whose bound is at least the
// smallest value of bit length n. Each bound is at least twice the one
// before it, so a value of bit length n falls in that bucket or the next:
// Observe finds its bucket with one lookup and one comparison, not a search.
var durIndex = func() (idx [64]uint8) {
	for n := 1; n < len(idx); n++ {
		lo := int64(1) << (n - 1)
		idx[n] = uint8(sort.Search(len(durBounds), func(i int) bool { return lo <= durBounds[i] }))
	}
	return idx
}()

// Observe records a simulated-time duration.
func (d *Durations) Observe(dur time.Duration) {
	us := max(dur.Microseconds(), 0)
	i := int(durIndex[bits.Len64(uint64(us))])
	if i < len(durBounds) && us > durBounds[i] {
		i++
	}
	d.count++
	d.sum += us
	d.buckets[i]++
}

// add folds o into d.
func (d *Durations) add(o *Durations) {
	d.count += o.count
	d.sum += o.sum
	for i, n := range o.buckets {
		d.buckets[i] += n
	}
}

// hist is one registry histogram.
type hist struct {
	volatile bool
	Durations
}

// Registry holds one lab's metrics. The zero value is not usable; create
// with NewRegistry. A nil Registry is valid and ignores all writes. One
// mutex guards every map.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*hist),
	}
}

// histSlot returns the named histogram, creating it empty if absent. The
// caller holds r.mu.
func (r *Registry) histSlot(name string, volatile bool) *hist {
	h := r.hists[name]
	if h == nil {
		h = &hist{volatile: volatile}
		r.hists[name] = h
	}
	return h
}

// Inc adds 1 to the named counter.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Add adds delta to the named counter, creating it at zero if absent, so
// an owner folding a zero total still lists the counter.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// SetMax raises the named gauge to v, creating it at v if absent. Max is
// the only gauge operation offered because it is the only
// order-independent one.
func (r *Registry) SetMax(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if cur, ok := r.gauges[name]; !ok || v > cur {
		r.gauges[name] = v
	}
	r.mu.Unlock()
}

// ObserveWall records a wall-clock duration. The series is marked
// volatile and excluded from Snapshot.Stable.
func (r *Registry) ObserveWall(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.histSlot(name, true).Observe(d)
	r.mu.Unlock()
}

// AddDurations folds d into the named (non-volatile) histogram, creating
// it even when d is empty, so a snapshot lists it with n=0.
func (r *Registry) AddDurations(name string, d *Durations) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.histSlot(name, false).add(d)
	r.mu.Unlock()
}

// Kind discriminates Entry payloads.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// Entry is one metric in a Snapshot.
type Entry struct {
	Name     string
	Kind     Kind
	Value    int64   // counter value
	Gauge    float64 // gauge value
	Count    int64   // histogram observation count
	SumMicro int64   // histogram sum, microseconds
	Buckets  []int64 // histogram counts per durBounds bucket (+overflow)
	Volatile bool    // true for wall-clock series
}

// Snapshot is an immutable, name-sorted copy of a registry's state.
type Snapshot struct {
	Entries []Entry
}

// Snapshot copies the registry under its lock. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	entries := make([]Entry, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, v := range r.counters {
		entries = append(entries, Entry{Name: name, Kind: KindCounter, Value: v})
	}
	for name, v := range r.gauges {
		entries = append(entries, Entry{Name: name, Kind: KindGauge, Gauge: v})
	}
	for name, h := range r.hists {
		entries = append(entries, Entry{
			Name:     name,
			Kind:     KindHistogram,
			Count:    h.count,
			SumMicro: h.sum,
			Buckets:  append([]int64(nil), h.buckets[:]...),
			Volatile: h.volatile,
		})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return Snapshot{Entries: entries}
}

// Stable returns the snapshot with volatile (wall-clock) entries removed;
// what remains is byte-identical across worker counts for a fixed seed.
func (s Snapshot) Stable() Snapshot {
	out := Snapshot{Entries: make([]Entry, 0, len(s.Entries))}
	for _, e := range s.Entries {
		if !e.Volatile {
			out.Entries = append(out.Entries, e)
		}
	}
	return out
}

// Counter returns the named counter's value, or 0 if absent.
func (s Snapshot) Counter(name string) int64 {
	for _, e := range s.Entries {
		if e.Name == name && e.Kind == KindCounter {
			return e.Value
		}
	}
	return 0
}

// Get returns the named entry of any kind.
func (s Snapshot) Get(name string) (Entry, bool) {
	for _, e := range s.Entries {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Quantile returns an upper bound on the q-quantile (0..1) of a histogram
// entry, in duration units, derived from its bucket bounds. The final
// overflow bucket reports the largest finite bound.
func (e Entry) Quantile(q float64) time.Duration {
	if e.Kind != KindHistogram || e.Count == 0 {
		return 0
	}
	// Ceiling, so the q-quantile observation itself is always covered
	// (e.g. q=0.95 of 2 observations must include the 2nd).
	target := int64(q*float64(e.Count) + 0.999999)
	if target < 1 {
		target = 1
	}
	if target > e.Count {
		target = e.Count
	}
	var cum int64
	for i, c := range e.Buckets {
		cum += c
		if cum >= target {
			if i >= len(durBounds) {
				break
			}
			return time.Duration(durBounds[i]) * time.Microsecond
		}
	}
	return time.Duration(durBounds[len(durBounds)-1]) * time.Microsecond
}

// String renders the snapshot as a sorted two-column table.
func (s Snapshot) String() string {
	if len(s.Entries) == 0 {
		return "(no metrics)\n"
	}
	w := len("metric")
	for _, e := range s.Entries {
		if len(e.Name) > w {
			w = len(e.Name)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s  value\n", w, "metric")
	for _, e := range s.Entries {
		fmt.Fprintf(&b, "%-*s  %s\n", w, e.Name, e.render())
	}
	return b.String()
}

func (e Entry) render() string {
	switch e.Kind {
	case KindCounter:
		return fmt.Sprintf("%d", e.Value)
	case KindGauge:
		return fmt.Sprintf("max=%g", e.Gauge)
	default:
		if e.Count == 0 {
			return "n=0"
		}
		mean := time.Duration(e.SumMicro/e.Count) * time.Microsecond
		return fmt.Sprintf("n=%d mean=%s p95<=%s", e.Count, mean, e.Quantile(0.95))
	}
}
