package simtime

import "time"

// eventHeap orders everything the scheduler will run: a binary min-heap by
// (at, seq), with the keys inline so sift comparisons never chase the
// Event pointer. Each event records its index (Event.pos), so Cancel
// removes it in O(log n). A Queue's entry carries its head's key; the
// heap's order never depends on insertion order, so that key may be older
// than entries pushed since.
type eventHeap []heapEntry

type heapEntry struct {
	at  time.Duration
	seq uint64
	e   *Event
}

func (a *heapEntry) before(b *heapEntry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// push inserts e under key (at, seq).
func (h *eventHeap) push(e *Event, at time.Duration, seq uint64) {
	*h = append(*h, heapEntry{at: at, seq: seq, e: e})
	h.siftUp(len(*h) - 1)
}

// siftUp moves the entry at j toward the root by shifting larger ancestors
// into the hole.
func (h eventHeap) siftUp(j int) {
	x := h[j]
	for j > 0 {
		parent := (j - 1) / 2
		if !x.before(&h[parent]) {
			break
		}
		h[j] = h[parent]
		h[j].e.pos = int32(j + 1)
		j = parent
	}
	h[j] = x
	x.e.pos = int32(j + 1)
}

// siftDown moves the entry at j toward the leaves; it reports whether the
// entry moved.
func (h eventHeap) siftDown(j int) bool {
	n := len(h)
	start := j
	x := h[j]
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
		h[j].e.pos = int32(j + 1)
		j = c
	}
	h[j] = x
	x.e.pos = int32(j + 1)
	return j != start
}

// remove deletes the entry at index i (dispatch of the root, or Cancel).
func (h *eventHeap) remove(i int) {
	a := *h
	a[i].e.pos = 0
	n := len(a) - 1
	if i != n {
		a[i] = a[n]
	}
	a[n] = heapEntry{}
	*h = a[:n]
	if i < n && !h.siftDown(i) {
		h.siftUp(i)
	}
}
