package simtime

import "time"

// eventHeap orders everything the scheduler will run: a binary min-heap by
// (at, seq). An entry is the whole timer, so a schedule allocates nothing
// and a sift touches only the slice. A Queue's entry carries its head's
// key; the heap's order never depends on insertion order, so that key may
// be older than entries pushed since.
type eventHeap []heapEntry

// heapEntry is a timer (fn set) or a non-empty Queue's head (q set).
type heapEntry struct {
	at  time.Duration
	seq uint64
	fn  func()
	q   *Queue
}

func (a *heapEntry) before(b *heapEntry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// push inserts x.
func (h *eventHeap) push(x heapEntry) {
	*h = append(*h, x)
	a := *h
	j := len(a) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if !x.before(&a[parent]) {
			break
		}
		a[j] = a[parent]
		j = parent
	}
	a[j] = x
}

// siftDown moves the root toward the leaves by shifting smaller children
// into the hole.
func (h eventHeap) siftDown() {
	n := len(h)
	j := 0
	x := h[0]
	for {
		c := 2*j + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&x) {
			break
		}
		h[j] = h[c]
		j = c
	}
	h[j] = x
}

// pop removes the root.
func (h *eventHeap) pop() {
	a := *h
	n := len(a) - 1
	a[0] = a[n]
	a[n] = heapEntry{}
	*h = a[:n]
	if n > 0 {
		h.siftDown()
	}
}
