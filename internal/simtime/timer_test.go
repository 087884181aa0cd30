package simtime

import (
	"testing"
	"time"
)

// TestAfterOrderingMatchesAt: After timers share the clock, the FIFO
// tie-break, and the time ordering of At timers.
func TestAfterOrderingMatchesAt(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(20*time.Millisecond, func() { order = append(order, 3) })
	s.After(10*time.Millisecond, func() { order = append(order, 1) })
	s.After(20*time.Millisecond, func() { order = append(order, 4) }) // same time as At: FIFO
	s.After(15*time.Millisecond, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestAfterUsesCurrentTime: After is relative to Now at call time,
// including when called from inside a dispatch.
func TestAfterUsesCurrentTime(t *testing.T) {
	s := NewScheduler()
	var fired time.Duration
	s.After(10*time.Millisecond, func() {
		s.After(5*time.Millisecond, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 15*time.Millisecond {
		t.Fatalf("nested After fired at %v, want 15ms", fired)
	}
}

// TestAfterPanicsLikeAt: the validation contract is shared with At.
func TestAfterPanicsLikeAt(t *testing.T) {
	s := NewScheduler()
	s.At(time.Second, func() {})
	s.Run()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("After with negative d did not panic")
			}
		}()
		s.After(-time.Nanosecond, func() {})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("After with nil callback did not panic")
			}
		}()
		s.After(time.Second, nil)
	}()
}

// TestAtRecyclesEvents: a timer lives in its heap entry, so once the heap
// has grown an At→dispatch cycle allocates nothing — the property the
// packet fast path depends on.
func TestAtRecyclesEvents(t *testing.T) {
	s := NewScheduler()
	var hits int
	fn := func() { hits++ } // hoisted so the test measures the scheduler, not this literal
	cycle := func() {
		s.At(s.Now()+time.Microsecond, fn)
		s.Run()
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(500, cycle); avg != 0 {
		t.Fatalf("At cycle allocates %.2f objects/op, want 0", avg)
	}
	if hits != 64+500+1 { // warmup + AllocsPerRun runs (incl. its extra warmup run)
		t.Fatalf("hits = %d", hits)
	}
}

// TestStoppedTickerNeverTicks: once stopped, a ticker never calls fn again,
// whether it is stopped from inside its own tick or by another event due at
// the same instant as its next tick. A tick already scheduled still
// dispatches, as a no-op.
func TestStoppedTickerNeverTicks(t *testing.T) {
	t.Run("inside its own tick", func(t *testing.T) {
		s := NewScheduler()
		ticks := 0
		var stop func()
		stop = s.Ticker(10*time.Millisecond, func() {
			ticks++
			if ticks == 2 {
				stop()
			}
		})
		s.RunUntil(time.Second)
		if ticks != 2 {
			t.Fatalf("got %d ticks, want 2", ticks)
		}
		if s.Pending() != 0 || s.Dispatched() != 2 {
			t.Fatalf("pending = %d, dispatched = %d, want 0 and 2: a tick that stops its ticker schedules no other",
				s.Pending(), s.Dispatched())
		}
	})
	t.Run("beside its next tick", func(t *testing.T) {
		s := NewScheduler()
		ticks := 0
		stop := s.Ticker(10*time.Millisecond, func() { ticks++ })
		// Scheduled before the tick at 20 ms is, so it runs first at 20 ms.
		s.At(20*time.Millisecond, stop)
		s.RunUntil(20 * time.Millisecond)
		if ticks != 1 {
			t.Fatalf("got %d ticks by 20ms, want 1: the tick due beside the stop ran", ticks)
		}
		if s.Dispatched() != 3 || s.Pending() != 0 {
			t.Fatalf("dispatched = %d, pending = %d, want 3 and 0: tick, stop, then the no-op tick",
				s.Dispatched(), s.Pending())
		}
		s.RunUntil(time.Second)
		if ticks != 1 || s.Dispatched() != 3 {
			t.Fatalf("ticker resumed after stop: %d ticks, %d dispatched", ticks, s.Dispatched())
		}
	})
}
