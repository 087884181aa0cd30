package simtime

import (
	"testing"
	"time"
)

// TestFiredAndCancelledAreExclusive pins the Event state contract: a
// normally-dispatched event reports Fired and not Cancelled, a cancelled
// one the reverse. (A previous implementation reused one flag for both, so
// Cancelled() lied about fired events.)
func TestFiredAndCancelledAreExclusive(t *testing.T) {
	s := NewScheduler()
	fired := s.At(time.Millisecond, func() {})
	cancelled := s.At(2*time.Millisecond, func() { t.Fatal("cancelled event ran") })
	s.Cancel(cancelled)
	s.Run()

	if !fired.Fired() || fired.Cancelled() {
		t.Fatalf("dispatched event: Fired=%v Cancelled=%v, want true/false",
			fired.Fired(), fired.Cancelled())
	}
	if cancelled.Fired() || !cancelled.Cancelled() {
		t.Fatalf("cancelled event: Fired=%v Cancelled=%v, want false/true",
			cancelled.Fired(), cancelled.Cancelled())
	}
	// Cancelling after the fact must not rewrite history.
	s.Cancel(fired)
	if !fired.Fired() || fired.Cancelled() {
		t.Fatalf("cancel-after-fire changed state: Fired=%v Cancelled=%v",
			fired.Fired(), fired.Cancelled())
	}
}

// TestTickerSteadyTickAllocatesNothing pins the re-arm design: a ticker
// owns one Event for its lifetime, so ticking allocates nothing.
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
	cancel()
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after ticker cancel, want 0", s.Pending())
	}
}

// TestSameTickFIFOAcrossCascades schedules events for one far tick from
// successively later vantage points, so they enter the wheel at different
// levels, interleaved with clock advances that force cascades. Dispatch
// must still be in exact schedule order.
func TestSameTickFIFOAcrossCascades(t *testing.T) {
	s := NewScheduler()
	const target = 40 * time.Millisecond
	var order []int
	add := func(i int) { s.At(target, func() { order = append(order, i) }) }

	add(0) // scheduled at t=0: high XOR distance, high level
	s.RunUntil(10 * time.Millisecond)
	add(1)
	s.RunUntil(39 * time.Millisecond)
	add(2) // close to target: low level
	s.RunUntil(target - time.Nanosecond)
	add(3) // 1ns away: level 0
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

// TestOverflowHeapPath exercises events past the wheel horizon (≈73 min):
// they must park in the overflow heap, cancel cleanly from there, and
// dispatch in (at, seq) order against wheel-resident events.
func TestOverflowHeapPath(t *testing.T) {
	s := NewScheduler()
	far := time.Duration(1) << (horizonBits + 2) // well past the horizon
	var order []int
	s.At(time.Millisecond, func() { order = append(order, 1) }) // wheel-resident
	s.At(far+2*time.Hour, func() { order = append(order, 3) })
	s.At(far+time.Hour, func() { order = append(order, 2) })
	doomed := s.At(far+30*time.Minute, func() { t.Fatal("cancelled overflow event ran") })
	if len(s.overflow) != 3 {
		t.Fatalf("overflow holds %d events, want 3", len(s.overflow))
	}
	s.Cancel(doomed)
	if len(s.overflow) != 2 {
		t.Fatalf("overflow holds %d events after cancel, want 2", len(s.overflow))
	}
	s.Run()
	if want := []int{1, 2, 3}; len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("dispatch order = %v, want %v", order, want)
	}
	if !doomed.Cancelled() {
		t.Fatal("overflow cancel not recorded")
	}
}

// TestOverflowSameTickBeatsWheel: an overflow event and a later-scheduled
// wheel event at the same tick must dispatch in seq order (overflow first),
// once the cursor has advanced enough for the tick to be wheel-reachable.
// The dispatched cursor-advancing event must itself land past the 2^42
// tick boundary: RunUntil alone moves now but not the wheel cursor, and a
// cursor below the boundary would send the second At back to the overflow
// heap, where seq order holds trivially and the wheel-vs-overflow tie is
// never exercised.
func TestOverflowSameTickBeatsWheel(t *testing.T) {
	s := NewScheduler()
	target := time.Duration(1)<<horizonBits + 5*time.Minute
	var order []int
	// Both start past the horizon; dispatching the first drags the wheel
	// cursor across the boundary.
	s.At(target-time.Minute, func() { order = append(order, -1) })
	s.At(target, func() { order = append(order, 0) })
	if len(s.overflow) != 2 {
		t.Fatalf("overflow holds %d events, want 2", len(s.overflow))
	}
	s.RunUntil(target - time.Minute)
	s.At(target, func() { order = append(order, 1) }) // same tick, lone wheel slot
	if len(s.overflow) != 1 {
		t.Fatalf("overflow holds %d events after second At, want 1 (wheel not reached)", len(s.overflow))
	}
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

// TestCancelOnlyEvent: cancelling the only queued event must empty the
// queue and leave the scheduler usable.
func TestCancelOnlyEvent(t *testing.T) {
	s := NewScheduler()
	e := s.At(time.Millisecond, func() { t.Fatal("cancelled event ran") })
	s.Cancel(e)
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after cancelling the only event, want 0", s.Pending())
	}
	ran := false
	s.At(2*time.Millisecond, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("scheduler unusable after cancelling the only event")
	}
}

// TestRunUntilBoundedPeekThenLateSchedule: a bounded RunUntil may cascade
// the wheel toward its horizon but never past it, so an event scheduled
// just after the horizon — behind other pending events — must still fire
// first.
func TestRunUntilBoundedPeekThenLateSchedule(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(50*time.Millisecond, func() { order = append(order, 2) })
	s.RunUntil(20 * time.Millisecond) // nothing fires; cursor must stay <= 20ms
	if s.Now() != 20*time.Millisecond {
		t.Fatalf("Now() = %v, want 20ms", s.Now())
	}
	s.At(20*time.Millisecond+time.Nanosecond, func() { order = append(order, 1) })
	s.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("dispatch order = %v, want [1 2]", order)
	}
}

// TestRearmReusesEvent pins the Ticker fast path at the scheduler level:
// rearm must reschedule the same Event with a fresh seq and clean state.
func TestRearmReusesEvent(t *testing.T) {
	s := NewScheduler()
	count := 0
	e := s.At(time.Millisecond, func() { count++ })
	s.Run()
	if !e.Fired() {
		t.Fatal("event did not fire")
	}
	s.rearm(e, s.Now()+time.Millisecond)
	if e.Fired() || e.Cancelled() {
		t.Fatal("rearm did not reset state")
	}
	s.Run()
	if count != 2 {
		t.Fatalf("callback ran %d times, want 2", count)
	}
	if e.At() != 2*time.Millisecond {
		t.Fatalf("rearmed At() = %v, want 2ms", e.At())
	}
}

// TestCursorNeverPassesPendingTicks drives a mixed near/far workload and
// checks the wheel-cursor invariant (elapsed <= every pending tick) that
// all slot math rests on.
func TestCursorNeverPassesPendingTicks(t *testing.T) {
	s := NewScheduler()
	deltas := []time.Duration{
		time.Nanosecond, 700 * time.Nanosecond, 3 * time.Microsecond,
		90 * time.Microsecond, 2 * time.Millisecond, 40 * time.Millisecond,
		900 * time.Millisecond, 10 * time.Second, 20 * time.Minute, 2 * time.Hour,
	}
	check := func() {
		for i := range s.head {
			for e := s.head[i]; e != nil; e = e.next {
				if uint64(e.at) < s.elapsed {
					t.Fatalf("cursor %d passed wheel tick %d (slot %d)", s.elapsed, e.at, i)
				}
			}
		}
	}
	for round := 0; round < 40; round++ {
		for i, d := range deltas {
			i := i
			s.At(s.Now()+d, func() { _ = i })
			check()
		}
		s.RunUntil(s.Now() + deltas[round%len(deltas)])
		check()
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after drain, want 0", s.Pending())
	}
}
