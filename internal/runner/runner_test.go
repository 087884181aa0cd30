package runner

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersDefault(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d", got)
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d", got)
	}
}

func TestMapCollectsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		got := Map(workers, 50, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := Map(4, 0, func(i int) int { return i }); got != nil {
		t.Fatalf("Map over 0 items = %v, want nil", got)
	}
}

func TestMapSerialOrder(t *testing.T) {
	// With 1 worker the calls happen inline, in index order.
	var order []int
	Map(1, 5, func(i int) int { order = append(order, i); return i })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v", order)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	Map(workers, 64, func(i int) int {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer inFlight.Add(-1)
		return i
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("peak in-flight %d exceeds %d workers", p, workers)
	}
}

// TestMapRunsEachCellOnce: every index reaches fn exactly once, with
// fewer workers than cells and with more.
func TestMapRunsEachCellOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 64, 100} {
		var calls [64]atomic.Int32
		Map(workers, len(calls), func(i int) int { calls[i].Add(1); return i })
		for i := range calls {
			if n := calls[i].Load(); n != 1 {
				t.Fatalf("workers=%d: fn(%d) ran %d times, want 1", workers, i, n)
			}
		}
	}
}

// TestMapFinishesEveryCellBeforeReraising: on worker goroutines a panic in
// one cell does not stop the others; by the time Map re-raises it, every
// cell has run. One worker runs inline in the serial order, which stops at
// the panicking cell.
func TestMapFinishesEveryCellBeforeReraising(t *testing.T) {
	for _, tc := range []struct{ workers, want int32 }{{1, 1}, {2, 16}, {4, 16}} {
		var ran atomic.Int32
		func() {
			defer func() {
				if v := recover(); v != 0 {
					t.Errorf("workers=%d: recovered %v, want the panic of cell 0", tc.workers, v)
				}
			}()
			Map(int(tc.workers), 16, func(i int) int {
				ran.Add(1)
				if i == 0 {
					panic(i)
				}
				return i
			})
		}()
		if n := ran.Load(); n != tc.want {
			t.Errorf("workers=%d: %d of 16 cells ran before the re-raise, want %d", tc.workers, n, tc.want)
		}
	}
}

// TestMapReraisesLowestPanic: a panicking cell never crashes a worker.
// Map re-raises the lowest-index cell's panic on the caller's goroutine,
// the panic the serial order raises first, at any worker count.
func TestMapReraisesLowestPanic(t *testing.T) {
	for _, w := range []int{1, 4} {
		func() {
			defer func() {
				if v := recover(); v != 2 {
					t.Errorf("workers=%d: recovered %v, want the panic of cell 2", w, v)
				}
			}()
			Map(w, 8, func(i int) int {
				if i >= 2 && i%2 == 0 {
					panic(i)
				}
				return i
			})
		}()
	}
}
