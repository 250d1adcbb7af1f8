// The hot-path index layer. The schedulers' inner loops used to re-scan
// slots, offsets, and busy ranges for every placement candidate; the
// queries here answer from incrementally maintained bitsets instead:
//
//   - NextSharedFreeSlot jumps word-by-word over the two endpoints' busy
//     bitsets to the next slot where a link can fire at all, and
//     NextSharedNonFullSlot folds the slot-full bitset into the same scan,
//   - FirstFreeOffset / OccupiedOffsets serve a slot's channel-offset
//     occupancy from one bitset row, skipping empty columns, and
//   - BusyUnionCount (schedule.go), the q^t term of the laxity equation
//     (Eq. 1), is a bounded scan of the two endpoints' busy words over the
//     queried range: a window up to a flow's deadline spans a few words, so
//     no per-pair cache is kept and no mutation has anything to invalidate.

package schedule

import "math/bits"

// NextSharedFreeSlot returns the earliest slot in the inclusive range
// [from, to] where neither u nor v is busy, or -1 if there is none. It scans
// the union of the two busy bitsets a word at a time, so runs of busy slots
// cost one popword instead of one check per slot.
func (s *Schedule) NextSharedFreeSlot(u, v, from, to int) int {
	if from < 0 {
		from = 0
	}
	if to >= s.numSlots {
		to = s.numSlots - 1
	}
	if from > to || u < 0 || u >= s.numNodes || v < 0 || v >= s.numNodes {
		return -1
	}
	bu := s.nodeBusy[u*s.words : (u+1)*s.words]
	bv := s.nodeBusy[v*s.words : (v+1)*s.words]
	wFrom, wTo := from/64, to/64
	for w := wFrom; w <= wTo; w++ {
		free := ^(bu[w] | bv[w])
		if w == wFrom {
			free &= ^uint64(0) << uint(from%64)
		}
		if free == 0 {
			continue
		}
		slot := w*64 + bits.TrailingZeros64(free)
		if slot > to {
			return -1
		}
		return slot
	}
	return -1
}

// FirstFreeOffset returns the lowest channel offset whose (slot, offset)
// cell is empty, or -1 when every offset in the slot is occupied.
func (s *Schedule) FirstFreeOffset(slot int) int {
	if slot < 0 || slot >= s.numSlots {
		return -1
	}
	row := s.occ[slot*s.offWords : (slot+1)*s.offWords]
	for w, word := range row {
		free := ^word
		if free == 0 {
			continue
		}
		off := w*64 + bits.TrailingZeros64(free)
		if off >= s.numOffsets {
			return -1
		}
		return off
	}
	return -1
}

// SlotFull reports whether every channel offset of the slot is occupied —
// one bit test against the maintained slot-full bitset.
func (s *Schedule) SlotFull(slot int) bool {
	if slot < 0 || slot >= s.numSlots {
		return false
	}
	return s.slotFull[slot/64]&(1<<uint(slot%64)) != 0
}

// NextSharedNonFullSlot returns the earliest slot in the inclusive range
// [from, to] where neither u nor v is busy and at least one channel offset
// is still free, or -1 if there is none. It is the no-reuse placement query:
// a saturated slot can never host a reuse-forbidden transmission, so the
// scan folds the slot-full bitset into the same word-at-a-time pass
// NextSharedFreeSlot makes over the endpoint busy bitsets.
func (s *Schedule) NextSharedNonFullSlot(u, v, from, to int) int {
	if from < 0 {
		from = 0
	}
	if to >= s.numSlots {
		to = s.numSlots - 1
	}
	if from > to || u < 0 || u >= s.numNodes || v < 0 || v >= s.numNodes {
		return -1
	}
	bu := s.nodeBusy[u*s.words : (u+1)*s.words]
	bv := s.nodeBusy[v*s.words : (v+1)*s.words]
	wFrom, wTo := from/64, to/64
	for w := wFrom; w <= wTo; w++ {
		free := ^(bu[w] | bv[w] | s.slotFull[w])
		if w == wFrom {
			free &= ^uint64(0) << uint(from%64)
		}
		if free == 0 {
			continue
		}
		slot := w*64 + bits.TrailingZeros64(free)
		if slot > to {
			return -1
		}
		return slot
	}
	return -1
}

// OccupiedCount returns the number of non-empty channel offsets in slot —
// the exact length OccupiedOffsets would append — in one popcount pass over
// the occupancy row. Place uses it to set the slot-full bit.
func (s *Schedule) OccupiedCount(slot int) int {
	if slot < 0 || slot >= s.numSlots {
		return 0
	}
	row := s.occ[slot*s.offWords : (slot+1)*s.offWords]
	n := 0
	for _, word := range row {
		n += bits.OnesCount64(word)
	}
	return n
}

// OccupiedOffsets appends the slot's non-empty channel offsets to buf in
// ascending order and returns the extended slice. Callers reuse buf across
// calls to stay allocation-free.
func (s *Schedule) OccupiedOffsets(slot int, buf []int) []int {
	if slot < 0 || slot >= s.numSlots {
		return buf
	}
	row := s.occ[slot*s.offWords : (slot+1)*s.offWords]
	for w, word := range row {
		for word != 0 {
			buf = append(buf, w*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return buf
}
