// Package simtime provides the deterministic discrete-event scheduler that
// drives every simulation in svrlab.
//
// All protocol endpoints, platform clients, servers, and measurement probes
// are callbacks registered on a single Scheduler. Virtual time only advances
// when the scheduler dispatches the next event, so a 300-second experiment
// completes in milliseconds of wall time and two runs with the same seed are
// bit-identical.
//
// The event queue is a hierarchical timer wheel (wheel.go) with a binary
// min-heap overflow for events past the wheel horizon: scheduling and
// cancelling are O(1), and dispatch order is exactly (at, seq) — events
// with equal firing times run in the order they were scheduled.
package simtime

import (
	"fmt"
	"time"
)

// Event is a scheduled callback. Events with equal firing times dispatch in
// the order they were scheduled (FIFO tie-breaking via a sequence number),
// which keeps runs deterministic.
type Event struct {
	at  time.Duration
	seq uint64
	fn  func()
	// Intrusive wheel-slot links: an Event threads directly through its
	// slot's doubly-linked list, so scheduling builds no container nodes
	// and Cancel is a pointer splice.
	next, prev *Event
	// slot is the event's location: a wheel slot index when >= 0, slotNone
	// when unqueued, or an encoded overflow-heap position (see heapSlot)
	// when <= slotOverflow.
	slot  int32
	fired bool // dispatched normally
	dead  bool // cancelled before dispatch
	// pooled events came from the scheduler's free list (Post/PostAfter).
	// They are never exposed to callers, so no one can hold a stale pointer
	// across recycling; after dispatch they return to the free list instead
	// of the garbage collector.
	pooled bool
}

// At reports the virtual time at which the event fires.
func (e *Event) At() time.Duration { return e.at }

// Cancelled reports whether Cancel removed the event before it fired.
// A fired event is not cancelled: the two states are mutually exclusive.
func (e *Event) Cancelled() bool { return e.dead }

// Fired reports whether the event's callback was dispatched.
func (e *Event) Fired() bool { return e.fired }

// Scheduler is a single-threaded discrete-event executor with a virtual
// clock. The zero value is not usable; call NewScheduler.
type Scheduler struct {
	now     time.Duration
	seq     uint64
	stopped bool
	// Dispatched counts events executed since construction; useful for
	// regression tests that pin simulation cost.
	dispatched uint64
	// free is the pooled-event free list (see Post). Its high-water mark is
	// the peak number of concurrently pending pooled events, so it stays
	// small even over million-packet runs.
	free []*Event

	// Timer wheel state (wheel.go). elapsed is the wheel cursor in ticks
	// (ns): it trails the earliest pending event and never advances past a
	// dispatch horizon the caller committed to, so it is always <= the next
	// value now can take. The scalar fields stay ahead of the slot arrays
	// so the per-dispatch state fits in the struct's first cache lines.
	elapsed   uint64
	levelMask uint32             // bit ℓ set iff level ℓ has any occupied slot
	pending   int                // queued events across wheel + overflow
	overflow  overflowHeap       // events past the wheel horizon
	occupied  [numLevels]uint64  // per-level slot occupancy bitmaps
	head      [wheelSlots]*Event // per-slot list heads (FIFO within a tick)
	tail      [wheelSlots]*Event // per-slot list tails
}

// NewScheduler returns a scheduler with the clock at zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Dispatched returns the number of events executed so far.
func (s *Scheduler) Dispatched() uint64 { return s.dispatched }

// Pending returns the number of events waiting in the queue.
func (s *Scheduler) Pending() int { return s.pending }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: that is always a logic error in a discrete-event model.
func (s *Scheduler) At(t time.Duration, fn func()) *Event {
	if fn == nil {
		panic("simtime: nil event callback")
	}
	if t < s.now {
		panic(fmt.Sprintf("simtime: scheduling at %v, before now %v", t, s.now))
	}
	e := &Event{at: t, seq: s.seq, fn: fn, slot: slotNone}
	s.seq++
	s.enqueue(e)
	return e
}

// After schedules fn to run d after the current time. Negative d panics.
func (s *Scheduler) After(d time.Duration, fn func()) *Event {
	return s.At(s.now+d, fn)
}

// rearm re-schedules a fired event for time t, reusing the Event struct.
// The caller must own the event and know it is not queued (fired or
// cancelled). This is the Ticker fast path: one Event per ticker for its
// whole lifetime instead of one per tick.
func (s *Scheduler) rearm(e *Event, t time.Duration) {
	if t < s.now {
		panic(fmt.Sprintf("simtime: scheduling at %v, before now %v", t, s.now))
	}
	e.at = t
	e.seq = s.seq
	s.seq++
	e.fired = false
	e.dead = false
	s.enqueue(e)
}

// Post schedules fn at absolute virtual time t without returning the Event.
// Fire-and-forget schedules cannot be cancelled, which lets the scheduler
// recycle the Event through a free list after dispatch — the per-packet-hop
// hot path stops allocating an Event per schedule. Semantics are otherwise
// identical to At (same FIFO tie-breaking, same past-time panic).
func (s *Scheduler) Post(t time.Duration, fn func()) {
	if fn == nil {
		panic("simtime: nil event callback")
	}
	if t < s.now {
		panic(fmt.Sprintf("simtime: scheduling at %v, before now %v", t, s.now))
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.at, e.fn, e.fired, e.dead = t, fn, false, false
	} else {
		e = &Event{at: t, fn: fn, pooled: true, slot: slotNone}
	}
	e.seq = s.seq
	s.seq++
	s.enqueue(e)
}

// PostAfter is Post at now+d.
func (s *Scheduler) PostAfter(d time.Duration, fn func()) { s.Post(s.now+d, fn) }

// recycle returns a dispatched pooled event to the free list, dropping the
// callback reference so the closure's captures do not outlive the event.
func (s *Scheduler) recycle(e *Event) {
	if e.pooled {
		e.fn = nil
		s.free = append(s.free, e)
	}
}

// Cancel removes a pending event in O(1) (a slot-list unlink; an overflow
// heap repair for far-future events). Cancelling an already-fired or
// already-cancelled event is a no-op.
func (s *Scheduler) Cancel(e *Event) {
	if e == nil || e.dead || e.fired {
		return
	}
	e.dead = true
	s.take(e)
}

// dispatch removes e from the queue, advances the clock, and runs its
// callback. e must be the findMin result.
func (s *Scheduler) dispatch(e *Event) {
	s.take(e)
	e.fired = true
	s.now = e.at
	// Drag the wheel cursor along: e is the global minimum, so no pending
	// tick is behind it and the slot invariants hold. Without this the
	// cursor could stagnate (the lone-event shortcut skips cascades) and
	// long runs would push every new event past the wheel horizon into
	// the overflow heap.
	if t := uint64(e.at); t > s.elapsed {
		s.elapsed = t
	}
	s.dispatched++
	fn := e.fn
	s.recycle(e)
	fn()
}

// Step executes the single earliest pending event and returns true, or
// returns false if the queue is empty or the scheduler is stopped. The clock
// jumps to the event's firing time before the callback runs.
func (s *Scheduler) Step() bool {
	if s.stopped || s.pending == 0 {
		return false
	}
	e := s.findMin(^uint64(0))
	if e == nil {
		return false
	}
	s.dispatch(e)
	return true
}

// Run dispatches events until the queue drains or the scheduler is stopped.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil dispatches events with firing times <= t, then advances the clock
// to exactly t (even if no event fired at t). Events scheduled during
// dispatch are honoured if they fall within the horizon.
func (s *Scheduler) RunUntil(t time.Duration) {
	if t < s.now {
		panic(fmt.Sprintf("simtime: RunUntil(%v) is before now %v", t, s.now))
	}
	// findMin doubles as the bounded peek: it only surfaces (and only
	// cascades toward) events at or before the horizon, so the wheel
	// cursor can never overtake t, and therefore never overtakes now.
	limit := uint64(t)
	for !s.stopped {
		e := s.findMin(limit)
		if e == nil {
			break
		}
		s.dispatch(e)
	}
	if !s.stopped && s.now < t {
		s.now = t
	}
}

// Stop halts dispatch; Step and Run return immediately afterwards. Intended
// for early experiment termination (e.g. a probe got its answer).
func (s *Scheduler) Stop() { s.stopped = true }

// Stopped reports whether Stop has been called.
func (s *Scheduler) Stopped() bool { return s.stopped }

// Ticker invokes fn every interval, starting at now+interval, until
// cancelled. It returns a cancel function. Jitterless; callers wanting jitter
// should reschedule themselves.
//
// A ticker owns a single Event for its whole lifetime, re-armed after each
// tick (the same lazy-deferral shape as the transport RTO timer), so a
// steady tick allocates nothing.
func (s *Scheduler) Ticker(interval time.Duration, fn func()) (cancel func()) {
	if interval <= 0 {
		panic("simtime: non-positive ticker interval")
	}
	var ev *Event
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped && !s.stopped {
			s.rearm(ev, s.now+interval)
		}
	}
	ev = s.After(interval, tick)
	return func() {
		stopped = true
		s.Cancel(ev)
	}
}
