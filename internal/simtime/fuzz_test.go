package simtime

import (
	"fmt"
	"testing"
	"time"
)

// refSched is the differential-fuzz reference: a deliberately naive
// scheduler that dispatches by linear scan over (at, seq). It shares no
// code with the heap and has no queues — a push is a plain event — so any
// ordering bug in either implementation shows up as a log divergence.
type refSched struct {
	now        time.Duration
	seq        uint64
	dispatched int
	events     []*refEvent
}

type refEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

func (r *refSched) schedule(t time.Duration, fn func()) {
	if t < r.now {
		panic("refSched: past")
	}
	r.events = append(r.events, &refEvent{at: t, seq: r.seq, fn: fn})
	r.seq++
}

// ticker models Scheduler.Ticker as an event that re-posts itself every
// interval until stopped; a stopped ticker's pending event still
// dispatches, and does nothing.
func (r *refSched) ticker(interval time.Duration, fn func()) (stop func()) {
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			r.schedule(r.now+interval, tick)
		}
	}
	r.schedule(r.now+interval, tick)
	return func() { stopped = true }
}

// step dispatches the earliest event at or before t and reports whether
// there was one.
func (r *refSched) step(t time.Duration) bool {
	best := -1
	for i, e := range r.events {
		if best < 0 || e.at < r.events[best].at || (e.at == r.events[best].at && e.seq < r.events[best].seq) {
			best = i
		}
	}
	if best < 0 || r.events[best].at > t {
		return false
	}
	e := r.events[best]
	r.events = append(r.events[:best], r.events[best+1:]...)
	r.now = e.at
	r.dispatched++
	e.fn()
	return true
}

func (r *refSched) runUntil(t time.Duration) {
	for r.step(t) {
	}
	if r.now < t {
		r.now = t
	}
}

func (r *refSched) run() {
	for r.step(time.Duration(1<<63 - 1)) {
	}
}

// schedOp is one decoded fuzz-program instruction.
type schedOp struct {
	kind  byte          // 0=At 1=After 2=Ticker 3=RunUntil 4=At-with-child 5=Push
	delta time.Duration // relative offset for schedules / run horizon / ticker interval
	// arg picks a ticker op (bit 0 set: stop the ticker arg>>1 picks, if
	// any has started; otherwise start one), seeds the At child's delay,
	// or, for a push, packs its queue (bits 0-1, mod 3), whether its
	// callback pushes a child (bit 7), the child's queue (bits 2-3, mod 3)
	// and the child's delay seed (bits 4-6).
	arg byte
}

// numQueues is how many Queues a fuzz program pushes onto.
const numQueues = 3

// maxTicks is how many times a fuzz ticker ticks before it stops itself
// from inside its own tick, so a far RunUntil cannot spin a short-interval
// ticker for ever.
const maxTicks = 8

// decodeProgram turns raw fuzz bytes into ops. Deltas use an
// exponent+mantissa encoding so programs mix near times with far-future
// ones past 2^42 ns: delta = mantissa << exp, exp in [0, 50), including
// mantissa 0 for exact same-tick collisions.
func decodeProgram(data []byte) []schedOp {
	var ops []schedOp
	for len(data) >= 4 && len(ops) < 256 {
		exp := uint(data[1]) % 50
		delta := time.Duration(uint64(data[2]) << exp)
		if delta < 0 || delta > time.Duration(1)<<55 {
			delta = time.Duration(1) << 55
		}
		ops = append(ops, schedOp{kind: data[0] % 6, delta: delta, arg: data[3]})
		data = data[4:]
	}
	return ops
}

// runProgram executes ops against either the Scheduler or the reference,
// returning the dispatch log as "time:id" strings plus the final clock.
// Event ids are assigned in schedule order, so identical logs mean
// identical (at, seq) dispatch order; every tick of a ticker logs the id
// it got when it started. A push goes onto one of numQueues Queues at
// max(now, that queue's tail) + delta; the reference schedules it as a
// plain event at the same time. Every ticker still running stops before
// the final drain. The Scheduler's log ends with its Pending and
// Dispatched counts, the reference's with the counts those must equal;
// both count a stopped ticker's no-op tick.
func runProgram(ops []schedOp, useSched bool) (log []string, final time.Duration) {
	var (
		w       *Scheduler
		r       *refSched
		nextID  int
		tickers []func() // each started ticker's stop
		queues  [numQueues]Queue
		tails   [numQueues]time.Duration // each queue's latest push time
	)
	if useSched {
		w = NewScheduler()
	} else {
		r = &refSched{}
	}
	now := func() time.Duration {
		if useSched {
			return w.Now()
		}
		return r.now
	}
	// clampAt keeps virtual time far from int64 overflow so both
	// implementations see in-range, identical target times. Only a
	// stopped ticker's no-op tick, in the final drain, lands past the
	// ceiling.
	clampAt := func(base, d time.Duration) time.Duration {
		t := base + d
		if ceil := time.Duration(1) << 60; t > ceil || t < base {
			t = ceil
		}
		return t
	}
	clampT := func(d time.Duration) time.Duration { return clampAt(now(), d) }
	var push func(k int, d time.Duration, arg byte)
	push = func(k int, d time.Duration, arg byte) {
		id := nextID
		nextID++
		t := clampAt(max(now(), tails[k]), d)
		tails[k] = t
		fn := func() {
			log = append(log, fmt.Sprintf("%d:%d", now(), id))
			if arg&0x80 != 0 {
				// A push from inside a dispatched item, possibly onto the
				// queue that item just left.
				cd := time.Duration(arg>>4&7) << (uint(id) % 20)
				push(int(arg>>2&3)%numQueues, cd, 0)
			}
		}
		if useSched {
			w.Push(&queues[k], new(Item), t, fn)
		} else {
			r.schedule(t, fn)
		}
	}
	var schedule func(t time.Duration, child bool, childSeed byte)
	schedule = func(t time.Duration, child bool, childSeed byte) {
		id := nextID
		nextID++
		fn := func() {
			log = append(log, fmt.Sprintf("%d:%d", now(), id))
			if child {
				// Deterministic follow-on schedule, exercising
				// schedule-during-dispatch in both implementations.
				d := time.Duration(uint64(childSeed) << (uint(id) % 20))
				schedule(clampT(d), false, 0)
			}
		}
		if useSched {
			w.At(t, fn)
		} else {
			r.schedule(t, fn)
		}
	}
	startTicker := func(interval time.Duration) {
		id := nextID
		nextID++
		ticks := 0
		var stop func()
		fn := func() {
			log = append(log, fmt.Sprintf("%d:%d", now(), id))
			if ticks++; ticks == maxTicks {
				stop()
			}
		}
		if useSched {
			stop = w.Ticker(interval, fn)
		} else {
			stop = r.ticker(interval, fn)
		}
		tickers = append(tickers, stop)
	}
	for _, op := range ops {
		switch op.kind {
		case 0:
			schedule(clampT(op.delta), false, 0)
		case 1:
			id := nextID
			nextID++
			fn := func() { log = append(log, fmt.Sprintf("%d:%d", now(), id)) }
			d := clampT(op.delta) - now()
			if useSched {
				w.After(d, fn)
			} else {
				r.schedule(r.now+d, fn)
			}
		case 2:
			if op.arg&1 != 0 && len(tickers) > 0 {
				tickers[int(op.arg>>1)%len(tickers)]()
			} else {
				startTicker(max(op.delta, 1))
			}
		case 3:
			if useSched {
				w.RunUntil(clampT(op.delta))
			} else {
				r.runUntil(clampT(op.delta))
			}
		case 4:
			schedule(clampT(op.delta), true, op.arg)
		case 5:
			push(int(op.arg&3)%numQueues, op.delta, op.arg)
		}
	}
	for _, stop := range tickers {
		stop()
	}
	if useSched {
		w.Run()
		log = append(log, fmt.Sprintf("pending=%d dispatched=%d", w.Pending(), w.Dispatched()))
		return log, w.Now()
	}
	r.run()
	log = append(log, fmt.Sprintf("pending=%d dispatched=%d", len(r.events), r.dispatched))
	return log, r.now
}

// FuzzSchedulerOrder is the differential fuzz target: arbitrary
// at/after/ticker/run-until/push programs must dispatch in the identical
// (at, seq) order on the Scheduler and on the naive reference.
func FuzzSchedulerOrder(f *testing.F) {
	// Same-tick FIFO collisions (mantissa 0 → delta 0).
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// Mixed near/far schedules with a run-until between them.
	f.Add([]byte{0, 10, 7, 0, 1, 20, 3, 0, 3, 15, 1, 0, 0, 45, 9, 0})
	// Ticker churn: two 1 ns tickers started among timers (op 2 with
	// nothing to stop starts one), each stopping itself after maxTicks.
	f.Add([]byte{0, 12, 5, 0, 0, 12, 6, 0, 2, 0, 0, 1, 0, 30, 2, 0, 2, 0, 0, 0})
	// A ticker stopped while its next tick is due beside a timer: a ticker
	// every 100, a timer at 200, RunUntil(150), then the stop; the tick at
	// 200 dispatches after the timer and does nothing.
	f.Add([]byte{2, 0, 100, 0, 0, 0, 200, 0, 3, 0, 150, 0, 2, 0, 0, 1})
	// Far-future traffic plus dispatch-time child schedules.
	f.Add([]byte{4, 48, 200, 9, 0, 49, 255, 0, 3, 49, 255, 0, 4, 5, 3, 17})
	// Timers at 13 ns shifted by 0, 3, 9, … 45 bits, then a RunUntil past
	// them all: one program spanning every scale from nanoseconds to 2^48 ns.
	f.Add([]byte{0, 0, 13, 0, 0, 3, 13, 0, 0, 9, 13, 0, 0, 15, 13, 0, 0, 21, 13, 0, 0, 27, 13, 0, 0, 33, 13, 0, 0, 39, 13, 0, 0, 45, 13, 0, 3, 49, 255, 0})
	// Far-future same-tick tie: an event at 255<<35 scheduled before the
	// clock reaches 200<<35 and one at the same tick scheduled after must
	// dispatch in seq order.
	f.Add([]byte{0, 35, 200, 0, 0, 35, 255, 0, 3, 35, 200, 0, 0, 35, 55, 0})
	// A queue head tying a timer at one tick, with the lower seq (queue 0:
	// pushed at 100 and 200, then timers at 200 and 100, so the re-keyed
	// head at 200 carries an older seq than the timer beside it) and with
	// the higher seq (a timer at 300, then a push onto queue 2 at 300).
	f.Add([]byte{5, 0, 100, 0, 5, 0, 100, 0, 0, 0, 200, 0, 0, 0, 100, 0, 0, 1, 150, 0, 5, 1, 150, 2})
	// A queue head past a RunUntil horizon must survive it: queue 0 holds
	// 100 and 500, RunUntil(300) runs only the first, then a timer at 400
	// and a push at 500 behind the surviving head.
	f.Add([]byte{5, 0, 100, 0, 5, 2, 100, 0, 3, 2, 75, 0, 0, 0, 100, 0, 5, 0, 0, 0})
	// A queue drained and refilled at the same tick: RunUntil(100) empties
	// queue 0, a push refills it at now, and an item pushed there at 100
	// pushes its child onto queue 0 at 100 from inside its own dispatch.
	f.Add([]byte{5, 0, 100, 0, 0, 0, 100, 0, 3, 0, 100, 0, 5, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0x80})
	// Queue traffic beside a timer past 2^42 ns: a timer at 2^43, pushes
	// at 2^30 and 2^30+2^43 on queue 0 and at 2^43 on queue 1, a RunUntil
	// to 2^42, then a push on queue 1 whose child lands on queue 0.
	f.Add([]byte{0, 43, 1, 0, 5, 30, 1, 0, 5, 43, 1, 1, 5, 43, 1, 0, 3, 42, 1, 0, 0, 0, 5, 0, 5, 0, 7, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeProgram(data)
		gotLog, gotNow := runProgram(ops, true)
		refLog, refNow := runProgram(ops, false)
		if len(gotLog) != len(refLog) {
			t.Fatalf("dispatch count diverged: scheduler %d, ref %d", len(gotLog), len(refLog))
		}
		for i := range gotLog {
			if gotLog[i] != refLog[i] {
				t.Fatalf("dispatch %d diverged: scheduler %q, ref %q", i, gotLog[i], refLog[i])
			}
		}
		if gotNow != refNow {
			t.Fatalf("final clock diverged: scheduler %v, ref %v", gotNow, refNow)
		}
	})
}
