package simtime

import "math/bits"

// The event queue is a Varghese–Lauck hierarchical timer wheel with a
// binary-heap overflow for far-future events (DESIGN.md §4.12). Seven
// levels of 64 slots each, keyed on nanosecond ticks: level 0 slots are
// 1 ns wide, so every event in a level-0 slot shares an exact firing time
// and the slot's intrusive FIFO list *is* the dispatch order. Level ℓ
// slots are 64^ℓ ns wide; the whole wheel covers 64^7 ns ≈ 73 min beyond
// the cursor, which holds every timer a lab schedules (packet hops,
// RTOs, tickers, session ends) — anything keyed past the horizon falls
// back to the overflow heap.
//
// Level selection is XOR-based (the tokio/Linux-kernel scheme): an event
// at tick t lives at the level of the highest bit in which t differs
// from the cursor `elapsed`, i.e. the level whose slot walls t and the
// cursor already share. This makes slot occupancy unambiguous — all
// events at one level sit inside the cursor's aligned 64-slot
// super-bucket, so slot index (t >> 6ℓ) & 63 never collides across
// bucket generations — and gives the ordering invariant the FIFO
// contract rests on: for a fixed tick t, Len64(t^elapsed) is
// non-increasing as elapsed advances, so later inserts of the same tick
// always land at the same or a lower level. Cascades therefore push
// events to the *front* of their new slot: everything already resident
// at the lower level was inserted later and must dispatch after them.
//
// Schedule and cancel are O(1) (list append / unlink); finding the next
// event is a bitmap scan over seven words plus amortized-O(1) cascading.

const (
	levelBits     = 6
	slotsPerLevel = 1 << levelBits // 64
	slotMask      = slotsPerLevel - 1
	numLevels     = 7
	wheelSlots    = numLevels * slotsPerLevel
	// horizonBits is the wheel span in bits: ticks whose XOR distance from
	// the cursor needs more bits go to the overflow heap.
	horizonBits = numLevels * levelBits
)

// Event location markers (Event.slot).
const (
	slotNone     int32 = -1 // not queued (never scheduled, fired, or cancelled)
	slotOverflow int32 = -2 // parked in the overflow heap at index 0; index i is -2-i
)

// heapSlot encodes overflow-heap index i into Event.slot; heapIdx decodes it.
func heapSlot(i int) int32   { return slotOverflow - int32(i) }
func heapIdx(slot int32) int { return int(slotOverflow - slot) }

// levelSlot maps a tick to its wheel position given the current cursor.
// Returns (level, slot index into head/tail) or ok=false when the tick is
// past the wheel horizon and belongs in the overflow heap. tick >= elapsed
// is a caller invariant (nothing is ever scheduled in the past).
func levelSlot(tick, elapsed uint64) (lvl, idx int, ok bool) {
	x := tick ^ elapsed
	if x >= 1<<horizonBits {
		return 0, 0, false
	}
	if x != 0 {
		lvl = (bits.Len64(x) - 1) / levelBits
	}
	return lvl, lvl*slotsPerLevel + int((tick>>(uint(lvl)*levelBits))&slotMask), true
}

// enqueue files e (with e.at already set) into its wheel slot or the
// overflow heap, and bumps the pending count.
func (s *Scheduler) enqueue(e *Event) {
	tick := uint64(e.at)
	lvl, idx, ok := levelSlot(tick, s.elapsed)
	if !ok {
		s.overflow.push(e)
	} else {
		s.pushBack(idx, e)
		s.occupied[lvl] |= 1 << (uint(idx) & slotMask)
		s.levelMask |= 1 << uint(lvl)
	}
	s.pending++
}

// pushBack appends e to slot idx's list (newest last — FIFO for equal
// ticks, since seq increases with every schedule).
func (s *Scheduler) pushBack(idx int, e *Event) {
	e.slot = int32(idx)
	e.next = nil
	e.prev = s.tail[idx]
	if e.prev != nil {
		e.prev.next = e
	} else {
		s.head[idx] = e
	}
	s.tail[idx] = e
}

// pushFront prepends e to slot idx's list and marks the slot occupied —
// the cascade path, where re-filed events must precede later-scheduled
// residents (see the ordering invariant above).
func (s *Scheduler) pushFront(lvl, idx int, e *Event) {
	e.slot = int32(idx)
	e.prev = nil
	e.next = s.head[idx]
	if e.next != nil {
		e.next.prev = e
	} else {
		s.tail[idx] = e
	}
	s.head[idx] = e
	s.occupied[lvl] |= 1 << (uint(idx) & slotMask)
	s.levelMask |= 1 << uint(lvl)
}

// unlink removes e from its wheel slot list, clearing the occupancy bit
// when the slot empties. O(1) — this is what makes Cancel cheap.
func (s *Scheduler) unlink(e *Event) {
	idx := int(e.slot)
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head[idx] = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail[idx] = e.prev
	}
	if s.head[idx] == nil {
		lvl := idx >> levelBits
		if s.occupied[lvl] &^= 1 << (uint(idx) & slotMask); s.occupied[lvl] == 0 {
			s.levelMask &^= 1 << uint(lvl)
		}
	}
	e.next, e.prev = nil, nil
}

// take removes a queued event from whichever structure holds it.
func (s *Scheduler) take(e *Event) {
	switch {
	case e.slot >= 0:
		s.unlink(e)
	case e.slot <= slotOverflow:
		s.overflow.remove(heapIdx(e.slot))
	default:
		return
	}
	e.slot = slotNone
	s.pending--
}

// findMin returns the earliest pending event in (at, seq) order without
// removing it, or nil if there is none at tick <= limit. It is the peek
// the dispatch loop and RunUntil share: a bitmap scan over the levels plus
// the overflow head. Higher-level slots that stand between the cursor and
// the minimum are cascaded down as a side effect; the cursor never
// advances past limit, so events scheduled after a bounded peek
// (RunUntil's horizon) can never land behind it.
func (s *Scheduler) findMin(limit uint64) *Event {
	for {
		// Earliest candidate slot per level. A slot at level ℓ covers ticks
		// [base, base+64^ℓ), so base is an exact firing tick at level 0 and
		// a lower bound above. Scanning high level to low with a strict <
		// keeps the *highest* level on base ties: its events were inserted
		// earlier (same-tick level is non-increasing over time), so they
		// must cascade down before the lower level's slot may dispatch.
		bestLvl := -1
		bestBase, secondBase := ^uint64(0), ^uint64(0)
		for m := s.levelMask; m != 0; {
			lvl := bits.Len32(m) - 1
			m &^= 1 << uint(lvl)
			// Occupied slots never trail the cursor's own slot (pending
			// ticks are >= elapsed and share the super-bucket), so the
			// lowest set bit is the earliest slot — no rotation needed.
			shift := uint(lvl) * levelBits
			slot := uint64(bits.TrailingZeros64(s.occupied[lvl]))
			base := s.elapsed&^(1<<(shift+levelBits)-1) | slot<<shift
			if base < bestBase {
				secondBase = bestBase
				bestBase, bestLvl = base, lvl
			} else if base < secondBase {
				secondBase = base
			}
		}
		// overflowAt is tracked separately from secondBase because the tie
		// rule differs: a wheel slot tying the lone event's exact tick sits
		// at a lower level (its same-tick events were scheduled later, so
		// the lone event may win a tie), whereas an overflow event at the
		// same tick was necessarily scheduled *first* (level is
		// non-increasing for a fixed tick) and must dispatch first.
		overflowAt := ^uint64(0)
		if len(s.overflow) > 0 {
			o := uint64(s.overflow[0].at)
			if bestLvl < 0 || o <= bestBase {
				if o > limit {
					return nil
				}
				return s.overflow[0].e
			}
			overflowAt = o
		}
		if bestLvl < 0 || bestBase > limit {
			return nil
		}
		if bestLvl == 0 {
			return s.head[bestBase&slotMask]
		}
		// Lone-event shortcut: if the winning slot holds a single event
		// whose exact tick beats every other candidate's lower bound, it is
		// the global minimum — return it from its high-level slot and skip
		// the cascades a sparse queue would otherwise pay per event. A tick
		// tying another *wheel slot's* base still wins: the tied slot sits
		// at a lower level, so its same-tick events were scheduled later.
		// Against the overflow head the comparison is strict — a same-tick
		// overflow event carries a lower seq, so the tie must fall through
		// to the cascade path, where `o <= bestBase` awards it correctly.
		shift := uint(bestLvl) * levelBits
		idx := bestLvl*slotsPerLevel + int((bestBase>>shift)&slotMask)
		if h := s.head[idx]; h == s.tail[idx] {
			if tick := uint64(h.at); tick <= secondBase && tick < overflowAt {
				if tick > limit {
					return nil
				}
				return h
			}
		}
		// Cascade the winning slot one step down. Advancing the cursor to
		// the slot base first guarantees every event re-files at a strictly
		// lower level (its tick now shares the slot's walls with elapsed).
		// bestBase <= limit here, so the cursor stays inside the horizon
		// the caller committed to reaching.
		if bestBase > s.elapsed {
			s.elapsed = bestBase
		}
		e := s.tail[idx]
		s.head[idx], s.tail[idx] = nil, nil
		if s.occupied[bestLvl] &^= 1 << ((bestBase >> shift) & slotMask); s.occupied[bestLvl] == 0 {
			s.levelMask &^= 1 << uint(bestLvl)
		}
		// Walk newest→oldest, prepending: each target slot receives its
		// share of the list in original order, ahead of any residents.
		for e != nil {
			p := e.prev
			lvl, nidx, _ := levelSlot(uint64(e.at), s.elapsed)
			s.pushFront(lvl, nidx, e)
			e = p
		}
	}
}

// overflowHeap is the far-future spill: a binary min-heap ordered by
// (at, seq) with the keys inline so sift comparisons never chase the
// Event pointer. Events land here only when scheduled past the wheel
// horizon (≈73 min of virtual time ahead), so it is cold; it exists for
// correctness, not speed. Entries never migrate into the wheel — the
// head is simply compared against the wheel's minimum at dispatch time.
type overflowEntry struct {
	at  int64 // time.Duration ns
	seq uint64
	e   *Event
}

type overflowHeap []overflowEntry

func overflowBefore(a, b overflowEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts e, sifting up by shifting ancestors into the hole.
func (h *overflowHeap) push(e *Event) {
	x := overflowEntry{at: int64(e.at), seq: e.seq, e: e}
	*h = append(*h, x)
	a := *h
	j := len(a) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if !overflowBefore(x, a[parent]) {
			break
		}
		a[j] = a[parent]
		a[j].e.slot = heapSlot(j)
		j = parent
	}
	a[j] = x
	e.slot = heapSlot(j)
}

// siftDown moves the entry at j toward the leaves; reports whether it moved.
func (h overflowHeap) siftDown(j int) bool {
	n := len(h)
	start := j
	x := h[j]
	for {
		l := 2*j + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && overflowBefore(h[r], h[l]) {
			c = r
		}
		if !overflowBefore(h[c], x) {
			break
		}
		h[j] = h[c]
		h[j].e.slot = heapSlot(j)
		j = c
	}
	h[j] = x
	x.e.slot = heapSlot(j)
	return j != start
}

// siftUp restores the heap property upward from index i.
func (h overflowHeap) siftUp(i int) {
	x := h[i]
	j := i
	for j > 0 {
		parent := (j - 1) / 2
		if !overflowBefore(x, h[parent]) {
			break
		}
		h[j] = h[parent]
		h[j].e.slot = heapSlot(j)
		j = parent
	}
	h[j] = x
	x.e.slot = heapSlot(j)
}

// remove deletes the entry at index i (dispatch of the head, or Cancel).
func (h *overflowHeap) remove(i int) {
	a := *h
	a[i].e.slot = slotNone
	n := len(a) - 1
	if i != n {
		a[i] = a[n]
		a[i].e.slot = heapSlot(i)
	}
	a[n] = overflowEntry{}
	*h = a[:n]
	if i < n {
		if !h.siftDown(i) {
			h.siftUp(i)
		}
	}
}
