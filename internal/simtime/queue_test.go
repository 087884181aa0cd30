package simtime

import (
	"testing"
	"time"
)

// TestPendingCountsQueuedItems: Pending counts every item waiting in a
// queue, not just the queue's one heap entry, and Dispatched counts every
// item that ran.
func TestPendingCountsQueuedItems(t *testing.T) {
	s := NewScheduler()
	var q Queue
	var items [3]Item
	for i := range items {
		s.Push(&q, &items[i], time.Duration(i+1)*time.Millisecond, func() {})
	}
	s.After(time.Second, func() {})
	if s.Pending() != 4 {
		t.Fatalf("Pending() = %d, want 4", s.Pending())
	}
	s.RunUntil(2 * time.Millisecond)
	if s.Pending() != 2 {
		t.Fatalf("Pending() = %d after two items ran, want 2", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", s.Pending())
	}
	if s.Dispatched() != 4 {
		t.Fatalf("Dispatched() = %d, want 4: each item counts once", s.Dispatched())
	}
}

// TestPushPanicsOutOfOrder: a push earlier than its queue's tail would
// reorder the FIFO, so Push refuses it; an earlier push onto another queue
// is fine.
func TestPushPanicsOutOfOrder(t *testing.T) {
	s := NewScheduler()
	var q, other Queue
	var a, b, c Item
	s.Push(&q, &a, 10*time.Millisecond, func() {})
	s.Push(&other, &c, 5*time.Millisecond, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("push behind the queue's tail did not panic")
		}
		if s.Pending() != 2 {
			t.Fatalf("Pending() = %d after the refused push, want 2", s.Pending())
		}
	}()
	s.Push(&q, &b, 9*time.Millisecond, func() {})
}

// TestPushPanicsInPast: like every schedule, a push before now panics.
func TestPushPanicsInPast(t *testing.T) {
	s := NewScheduler()
	s.RunUntil(time.Second)
	var q Queue
	var it Item
	defer func() {
		if recover() == nil {
			t.Fatal("push in the past did not panic")
		}
	}()
	s.Push(&q, &it, 500*time.Millisecond, func() {})
}

// TestPushAllocatesNothing: the item is embedded in its owner and the queue
// is a zero value, so a push-and-dispatch cycle allocates nothing.
func TestPushAllocatesNothing(t *testing.T) {
	s := NewScheduler()
	var q Queue
	var items [2]Item
	fn := func() {}
	cycle := func() {
		s.Push(&q, &items[0], s.Now()+time.Microsecond, fn)
		s.Push(&q, &items[1], s.Now()+2*time.Microsecond, fn)
		s.Run()
	}
	cycle() // grows the heap's backing array once
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("push cycle allocates %.2f objects/op, want 0", avg)
	}
}
