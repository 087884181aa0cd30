package simtime

import (
	"testing"
	"time"
)

// TestTickerSteadyTickAllocatesNothing: each tick schedules the next with
// the ticker's one closure, so ticking allocates nothing.
func TestTickerSteadyTickAllocatesNothing(t *testing.T) {
	s := NewScheduler()
	ticks := 0
	cancel := s.Ticker(time.Millisecond, func() { ticks++ })
	s.RunUntil(10 * time.Millisecond) // warm up past the first arm
	if ticks != 10 {
		t.Fatalf("warmup ticks = %d, want 10", ticks)
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.RunUntil(s.Now() + time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("steady tick allocates %.1f allocs/run, want 0", allocs)
	}
	before := ticks
	cancel()
	s.Run() // the tick already scheduled dispatches as a no-op
	if s.Pending() != 0 || ticks != before {
		t.Fatalf("after cancel and drain: pending = %d, ticks = %d, want 0 and %d", s.Pending(), ticks, before)
	}
}

// TestSameTickFIFOAcrossAdvances schedules events for one far tick from
// successively later vantage points, interleaved with clock advances.
// Dispatch must still be in exact schedule order.
func TestSameTickFIFOAcrossAdvances(t *testing.T) {
	s := NewScheduler()
	const target = 40 * time.Millisecond
	var order []int
	add := func(i int) { s.At(target, func() { order = append(order, i) }) }

	add(0)
	s.RunUntil(10 * time.Millisecond)
	add(1)
	s.RunUntil(39 * time.Millisecond)
	add(2)
	s.RunUntil(target - time.Nanosecond)
	add(3) // 1ns away
	add(4)
	s.Run()

	if len(order) != 5 {
		t.Fatalf("dispatched %d events, want 5", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("same-tick dispatch order = %v, want ascending", order)
		}
	}
	if s.Now() != target {
		t.Fatalf("Now() = %v, want %v", s.Now(), target)
	}
}

// TestFarFutureOrder: events more than 2^44 ns (about 4.9 h) ahead
// dispatch in (at, seq) order against near ones.
func TestFarFutureOrder(t *testing.T) {
	s := NewScheduler()
	far := time.Duration(1) << 44
	var order []int
	s.At(time.Millisecond, func() { order = append(order, 1) })
	s.At(far+2*time.Hour, func() { order = append(order, 3) })
	s.At(far+time.Hour, func() { order = append(order, 2) })
	s.Run()
	if want := []int{1, 2, 3}; len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("dispatch order = %v, want %v", order, want)
	}
}

// TestFarFutureSameTickFIFO: an event at a tick past 2^42 ns scheduled
// before the clock got near it, and a later-scheduled event at the same
// tick, dispatch in seq order.
func TestFarFutureSameTickFIFO(t *testing.T) {
	s := NewScheduler()
	target := time.Duration(1)<<42 + 5*time.Minute
	var order []int
	s.At(target-time.Minute, func() { order = append(order, -1) })
	s.At(target, func() { order = append(order, 0) })
	s.RunUntil(target - time.Minute)
	s.At(target, func() { order = append(order, 1) }) // same tick, later seq
	s.Run()
	want := []int{-1, 0, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", order, want)
		}
	}
}

// TestFirstEventArbitration: events scheduled after the first one into an
// empty queue must interleave with it by (at, seq) — earlier ticks preempt
// it, equal ticks follow it.
func TestFirstEventArbitration(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(10*time.Millisecond, func() { order = append(order, 1) })
	s.At(5*time.Millisecond, func() { order = append(order, 0) })  // earlier tick
	s.At(10*time.Millisecond, func() { order = append(order, 2) }) // same tick, later seq
	s.Run()
	want := []int{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", order, want)
		}
	}
}

// TestRunUntilBoundedPeekThenLateSchedule: a bounded RunUntil leaves
// events past its horizon pending, so an event scheduled just after the
// horizon — behind other pending events — must still fire first.
func TestRunUntilBoundedPeekThenLateSchedule(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(50*time.Millisecond, func() { order = append(order, 2) })
	s.RunUntil(20 * time.Millisecond) // nothing fires
	if s.Now() != 20*time.Millisecond {
		t.Fatalf("Now() = %v, want 20ms", s.Now())
	}
	s.At(20*time.Millisecond+time.Nanosecond, func() { order = append(order, 1) })
	s.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("dispatch order = %v, want [1 2]", order)
	}
}
