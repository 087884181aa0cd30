package simtime

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerStartsAtZero(t *testing.T) {
	s := NewScheduler()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(30*time.Millisecond, func() { order = append(order, 3) })
	s.At(10*time.Millisecond, func() { order = append(order, 1) })
	s.At(20*time.Millisecond, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("final Now() = %v, want 30ms", s.Now())
	}
}

func TestEqualTimesFIFOTieBreak(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("tie-break order = %v, want ascending", order)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(500*time.Millisecond, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	s.At(time.Second, nil)
}

func TestRunUntilAdvancesClockExactly(t *testing.T) {
	s := NewScheduler()
	count := 0
	s.At(time.Second, func() { count++ })
	s.At(3*time.Second, func() { count++ })
	s.RunUntil(2 * time.Second)
	if count != 1 {
		t.Fatalf("count = %d after RunUntil(2s), want 1", count)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s", s.Now())
	}
	s.RunUntil(3 * time.Second)
	if count != 2 {
		t.Fatalf("count = %d after RunUntil(3s), want 2", count)
	}
}

func TestRunUntilIncludesBoundary(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.At(2*time.Second, func() { fired = true })
	s.RunUntil(2 * time.Second)
	if !fired {
		t.Fatal("event at exactly the horizon did not fire")
	}
}

func TestRunUntilHonoursEventsScheduledDuringDispatch(t *testing.T) {
	s := NewScheduler()
	var times []time.Duration
	s.At(time.Second, func() {
		times = append(times, s.Now())
		s.After(500*time.Millisecond, func() { times = append(times, s.Now()) })
	})
	s.RunUntil(2 * time.Second)
	if len(times) != 2 || times[1] != 1500*time.Millisecond {
		t.Fatalf("times = %v, want [1s 1.5s]", times)
	}
}

func TestTickerRepeatsAndCancels(t *testing.T) {
	s := NewScheduler()
	var ticks []time.Duration
	var cancel func()
	cancel = s.Ticker(100*time.Millisecond, func() {
		ticks = append(ticks, s.Now())
		if len(ticks) == 3 {
			cancel()
		}
	})
	s.RunUntil(time.Second)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3", len(ticks))
	}
	for i, ts := range ticks {
		want := time.Duration(i+1) * 100 * time.Millisecond
		if ts != want {
			t.Fatalf("tick %d at %v, want %v", i, ts, want)
		}
	}
}

// Cancelling a ticker from inside its own tick callback must stop the
// rescheduling immediately: no further ticks fire.
func TestTickerCancelDuringTick(t *testing.T) {
	s := NewScheduler()
	ticks := 0
	var cancel func()
	cancel = s.Ticker(50*time.Millisecond, func() {
		ticks++
		cancel() // cancel from within the tick itself
	})
	s.RunUntil(time.Second)
	if ticks != 1 {
		t.Fatalf("got %d ticks after cancel-during-tick, want 1", ticks)
	}
	// Cancelling again is a no-op.
	cancel()
	s.RunUntil(2 * time.Second)
	if ticks != 1 {
		t.Fatalf("ticker resumed after cancel: %d ticks", ticks)
	}
}

func TestTickerNonPositiveIntervalPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive interval did not panic")
		}
	}()
	s.Ticker(0, func() {})
}

func TestDispatchedCounter(t *testing.T) {
	s := NewScheduler()
	for i := 1; i <= 5; i++ {
		s.At(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	if s.Dispatched() != 5 {
		t.Fatalf("Dispatched() = %d, want 5", s.Dispatched())
	}
}

// Property: for any set of firing times, dispatch order is the sorted order.
func TestPropertyDispatchOrderIsSorted(t *testing.T) {
	f := func(raw []uint16) bool {
		s := NewScheduler()
		var fired []time.Duration
		for _, v := range raw {
			d := time.Duration(v) * time.Microsecond
			s.At(d, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: two runs over the same random workload dispatch identically.
func TestPropertyDeterminism(t *testing.T) {
	run := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		var fired []time.Duration
		var spawn func(depth int)
		spawn = func(depth int) {
			fired = append(fired, s.Now())
			if depth < 3 {
				n := rng.Intn(3)
				for i := 0; i < n; i++ {
					s.After(time.Duration(rng.Intn(1000))*time.Microsecond, func() { spawn(depth + 1) })
				}
			}
		}
		for i := 0; i < 20; i++ {
			s.At(time.Duration(rng.Intn(5000))*time.Microsecond, func() { spawn(0) })
		}
		s.Run()
		return fired
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
