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
// were scheduled. One min-heap holds the timers (At, After, Ticker) and
// one entry per non-empty Queue, keyed by its head. A timer has no handle
// and cannot be cancelled. A Queue is a FIFO whose pushes never go back in
// time — the fabric keeps one per link, so a link's packets in flight cost
// the heap a single entry, not one each. Each Push reserves its seq
// exactly as At would, so dispatch order is the same as if every item had
// been scheduled with At (DESIGN.md §4.12).
package simtime

import (
	"fmt"
	"time"
)

// Queue is a FIFO of Items that the scheduler keys by its head: the heap
// holds one entry per non-empty queue, however many items wait in it.
// Items are pushed in non-decreasing time order (Push panics otherwise), so
// the head is always the queue's earliest item. The zero value is an empty
// queue.
type Queue struct {
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

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: that is always a logic error in a discrete-event model. A
// timer cannot be cancelled; an owner that changes its mind leaves the
// timer to fire and has fn check whether it is still wanted.
func (s *Scheduler) At(t time.Duration, fn func()) {
	if fn == nil {
		panic("simtime: nil event callback")
	}
	if t < s.now {
		panic(fmt.Sprintf("simtime: scheduling at %v, before now %v", t, s.now))
	}
	s.heap.push(heapEntry{at: t, seq: s.seq, fn: fn})
	s.seq++
	s.pending++
}

// After schedules fn to run d after the current time. Negative d panics.
func (s *Scheduler) After(d time.Duration, fn func()) { s.At(s.now+d, fn) }

// Push appends it to q, to run at t, and reserves the seq an At at this
// point would take, so the item dispatches exactly where that At would
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
		s.heap.push(heapEntry{at: t, seq: s.seq, q: q})
	} else {
		q.tail.next = it
	}
	q.tail = it
	s.seq++
	s.pending++
}

// dispatch runs the earliest pending work: the heap's root event, or the
// head item of the root's queue. The clock jumps to its firing time first.
func (s *Scheduler) dispatch() {
	top := &s.heap[0]
	s.now = top.at
	s.dispatched++
	s.pending--
	if q := top.q; q != nil {
		// Re-key the queue to its next head, or retire its entry, before
		// the item runs: the callback may push onto this queue again.
		it := q.head
		if next := it.next; next != nil {
			q.head = next
			top.at, top.seq = next.at, next.seq
			s.heap.siftDown()
		} else {
			q.head, q.tail = nil, nil
			s.heap.pop()
		}
		it.run()
		return
	}
	fn := top.fn
	s.heap.pop()
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
// Each tick schedules the next with the same closure, so a steady tick
// allocates nothing. Cancel only marks the ticker stopped: a tick already
// scheduled still dispatches, once, and does nothing.
func (s *Scheduler) Ticker(interval time.Duration, fn func()) (cancel func()) {
	if interval <= 0 {
		panic("simtime: non-positive ticker interval")
	}
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			s.At(s.now+interval, tick)
		}
	}
	s.After(interval, tick)
	return func() { stopped = true }
}
