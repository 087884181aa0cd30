// Package simtime provides the deterministic discrete-event scheduler that
// drives every simulation in svrlab.
//
// All protocol endpoints, platform clients, servers, and measurement probes
// are callbacks registered on a single Scheduler. Virtual time only advances
// when the scheduler dispatches the next event, so a 300-second experiment
// completes in milliseconds of wall time and two runs with the same seed are
// bit-identical.
//
// Work is ordered by (at, seq): equal firing times run in the order they
// were scheduled. One min-heap holds the timers (At, After, Post, Ticker)
// and one entry per non-empty Queue, keyed by its head. A Queue is a FIFO
// whose pushes never go back in time — the fabric keeps one per link, so a
// link's packets in flight cost the heap a single entry, not one each.
// Each Push reserves its seq exactly as Post would, so dispatch order is
// the same as if every item had been posted (DESIGN.md §4.12).
package simtime

import (
	"fmt"
	"time"
)

// Event is a scheduled callback. Events with equal firing times dispatch in
// the order they were scheduled (FIFO tie-breaking via a sequence number),
// which keeps runs deterministic.
type Event struct {
	at time.Duration
	fn func()
	// q is set only on a Queue's own heap entry: dispatching it runs the
	// queue's head item instead of fn.
	q *Queue
	// pos is the event's heap index plus one, or 0 when it is not queued.
	pos   int32
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

// Queue is a FIFO of Items that the scheduler keys by its head: the heap
// holds one entry per non-empty queue, however many items wait in it.
// Items are pushed in non-decreasing time order (Push panics otherwise), so
// the head is always the queue's earliest item. The zero value is an empty
// queue.
type Queue struct {
	ev         Event // the queue's heap entry while it is non-empty
	head, tail *Item
}

// Item is one entry of a Queue. Its owner embeds it, so a push allocates
// nothing; an item sits in at most one queue at a time.
type Item struct {
	at   time.Duration
	seq  uint64
	next *Item
	run  func()
}

// Scheduler is a single-threaded discrete-event executor with a virtual
// clock. The zero value is not usable; call NewScheduler.
type Scheduler struct {
	now time.Duration
	seq uint64
	// Dispatched counts events executed since construction, queue items
	// included; useful for regression tests that pin simulation cost.
	dispatched uint64
	pending    int // timers plus queued items
	heap       eventHeap
	// free is the pooled-event free list (see Post). Its high-water mark is
	// the peak number of concurrently pending pooled events, so it stays
	// small even over million-packet runs.
	free []*Event
}

// NewScheduler returns a scheduler with the clock at zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Dispatched returns the number of events executed so far.
func (s *Scheduler) Dispatched() uint64 { return s.dispatched }

// Pending returns the number of timers and queued items waiting to run.
func (s *Scheduler) Pending() int { return s.pending }

// schedule files e at t with the next seq. Scheduling in the past panics:
// that is always a logic error in a discrete-event model.
func (s *Scheduler) schedule(e *Event, t time.Duration) {
	if t < s.now {
		panic(fmt.Sprintf("simtime: scheduling at %v, before now %v", t, s.now))
	}
	e.at = t
	s.heap.push(e, t, s.seq)
	s.seq++
	s.pending++
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics.
func (s *Scheduler) At(t time.Duration, fn func()) *Event {
	if fn == nil {
		panic("simtime: nil event callback")
	}
	e := &Event{fn: fn}
	s.schedule(e, t)
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
	e.fired = false
	e.dead = false
	s.schedule(e, t)
}

// Post schedules fn at absolute virtual time t without returning the Event.
// Fire-and-forget schedules cannot be cancelled, which lets the scheduler
// recycle the Event through a free list after dispatch, so a timer nobody
// cancels stops allocating an Event per schedule. Semantics are otherwise
// identical to At (same FIFO tie-breaking, same past-time panic).
func (s *Scheduler) Post(t time.Duration, fn func()) {
	if fn == nil {
		panic("simtime: nil event callback")
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.fn, e.fired = fn, false
	} else {
		e = &Event{fn: fn, pooled: true}
	}
	s.schedule(e, t)
}

// PostAfter is Post at now+d.
func (s *Scheduler) PostAfter(d time.Duration, fn func()) { s.Post(s.now+d, fn) }

// Push appends it to q, to run at t, and reserves the seq a Post at this
// point would take, so the item dispatches exactly where that Post would
// have. t must not be before now, nor before the time of q's tail: a queue
// is FIFO, and Push panics rather than reorder it. Items cannot be
// cancelled.
func (s *Scheduler) Push(q *Queue, it *Item, t time.Duration, run func()) {
	if run == nil {
		panic("simtime: nil event callback")
	}
	if t < s.now {
		panic(fmt.Sprintf("simtime: pushing at %v, before now %v", t, s.now))
	}
	if q.tail != nil && t < q.tail.at {
		panic(fmt.Sprintf("simtime: pushing at %v, behind the queue's tail at %v", t, q.tail.at))
	}
	it.at, it.seq, it.next, it.run = t, s.seq, nil, run
	if q.tail == nil {
		q.head = it
		q.ev.q = q
		s.heap.push(&q.ev, t, s.seq)
	} else {
		q.tail.next = it
	}
	q.tail = it
	s.seq++
	s.pending++
}

// recycle returns a dispatched pooled event to the free list, dropping the
// callback reference so the closure's captures do not outlive the event.
func (s *Scheduler) recycle(e *Event) {
	if e.pooled {
		e.fn = nil
		s.free = append(s.free, e)
	}
}

// Cancel removes a pending event in O(log n). Cancelling an already-fired or
// already-cancelled event is a no-op.
func (s *Scheduler) Cancel(e *Event) {
	if e == nil || e.dead || e.fired {
		return
	}
	e.dead = true
	if e.pos > 0 {
		s.heap.remove(int(e.pos - 1))
		s.pending--
	}
}

// dispatch runs the earliest pending work: the heap's root event, or the
// head item of the root's queue. The clock jumps to its firing time first.
func (s *Scheduler) dispatch() {
	top := &s.heap[0]
	e := top.e
	s.now = top.at
	s.dispatched++
	s.pending--
	if q := e.q; q != nil {
		// Re-key the queue to its next head, or retire its entry, before
		// the item runs: the callback may push onto this queue again.
		it := q.head
		if next := it.next; next != nil {
			q.head = next
			top.at, top.seq = next.at, next.seq
			s.heap.siftDown(0)
		} else {
			q.head, q.tail = nil, nil
			s.heap.remove(0)
		}
		it.run()
		return
	}
	s.heap.remove(0)
	e.fired = true
	fn := e.fn
	s.recycle(e)
	fn()
}

// Step executes the single earliest pending event and returns true, or
// returns false if the queue is empty. The clock jumps to the event's
// firing time before the callback runs.
func (s *Scheduler) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	s.dispatch()
	return true
}

// Run dispatches events until the queue drains.
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
	for len(s.heap) > 0 && s.heap[0].at <= t {
		s.dispatch()
	}
	if s.now < t {
		s.now = t
	}
}

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
		if !stopped {
			s.rearm(ev, s.now+interval)
		}
	}
	ev = s.After(interval, tick)
	return func() {
		stopped = true
		s.Cancel(ev)
	}
}
