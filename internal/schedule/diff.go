package schedule

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// ChangeKind distinguishes dissemination delta entries.
type ChangeKind int

const (
	// Added: the transmission exists only in the new schedule.
	Added ChangeKind = iota + 1
	// Removed: the transmission exists only in the old schedule.
	Removed
)

// String implements fmt.Stringer.
func (k ChangeKind) String() string {
	switch k {
	case Added:
		return "add"
	case Removed:
		return "remove"
	default:
		return fmt.Sprintf("ChangeKind(%d)", int(k))
	}
}

// Change is one entry of a schedule delta.
type Change struct {
	Kind ChangeKind
	Tx   Tx
}

// Diff computes the dissemination delta from old to new: the transmissions
// to remove and to add, deterministically ordered (removals first, then
// additions, each by slot/flow/hop/attempt). A repair that moved k
// transmissions yields a 2k-entry delta — what the manager pushes to the
// affected devices instead of a full schedule download. It is the net of a
// journal that removes every old transmission and places every new one, so
// a transmission both grids hold cancels; equal grids give nil.
func Diff(old, new *Schedule) ([]Change, error) {
	if old == nil || new == nil {
		return nil, fmt.Errorf("diff: nil schedule")
	}
	if old.NumSlots() != new.NumSlots() || old.NumOffsets() != new.NumOffsets() {
		return nil, fmt.Errorf("diff: dimensions differ (%d×%d vs %d×%d)",
			old.NumSlots(), old.NumOffsets(), new.NumSlots(), new.NumOffsets())
	}
	journal := make([]Change, 0, old.Len()+new.Len())
	for _, tx := range old.Txs() {
		journal = append(journal, Change{Kind: Removed, Tx: tx})
	}
	for _, tx := range new.Txs() {
		journal = append(journal, Change{Kind: Added, Tx: tx})
	}
	changes, _ := NetJournal(journal, nil)
	if len(changes) == 0 {
		return nil, nil
	}
	return changes, nil
}

// NetJournal returns the net of journal, a sequence of placements (Added)
// and removals (Removed) of transmissions that were each placed in one grid:
// a transmission removed and re-placed cancels, one with more removals than
// placements is Removed, one with more placements Added. The result is in
// the canonical order Diff produces — removals, then additions, each by
// slot, flow, hop, attempt, instance, offset and link — is allocated at its
// exact length, and is empty but not nil when everything cancels. In a
// journal of one grid no two transmissions present at once share a slot,
// flow, hop and attempt, so within one kind that order is SortChanges'.
//
// keys is scratch, grown to two words per entry and returned for reuse.
// The journal is sorted through it, one uint64 per entry: the slot in the
// high 32 bits (a grid's slots are below 2^31, see maxGridEntries) and the
// entry's position in the low 32. Long journals are radix-sorted on the
// slot, short ones comparison-sorted on the whole key, and only entries
// sharing a slot are compared field by field. NetJournal panics on a slot
// outside [0, 2^31), which no grid can produce.
func NetJournal(journal []Change, keys []uint64) ([]Change, []uint64) {
	n := len(journal)
	keys = slices.Grow(keys[:0], 2*n)[:2*n]
	src, dst := keys[:n], keys[n:]
	top := 0
	for i := range journal {
		slot := journal[i].Tx.Slot
		if uint(slot) > math.MaxInt32 {
			panic(fmt.Sprintf("schedule: journal entry %d in slot %d", i, slot))
		}
		top |= slot
		src[i] = uint64(slot)<<32 | uint64(i)
	}
	if n < radixMin {
		slices.Sort(src)
	} else {
		// An LSD radix sort on the slot, a byte per pass, between the two
		// halves of keys. Each pass is stable, so positions stay ascending
		// within a slot.
		for shift := 32; top>>(shift-32) != 0; shift += 8 {
			var start [256]int
			for _, k := range src {
				start[byte(k>>shift)]++
			}
			at := 0
			for d, c := range start {
				start[d] = at
				at += c
			}
			for _, k := range src {
				d := byte(k >> shift)
				dst[start[d]] = k
				start[d]++
			}
			src, dst = dst, src
		}
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && src[j]>>32 == src[i]>>32 {
			j++
		}
		if j-i > 1 {
			sortSlot(journal, src[i:j])
		}
		i = j
	}
	// Sum each run of equal transmissions (+1 per placement, −1 per
	// removal) and keep the nonzero runs' last positions in src's prefix,
	// the sign in the top bit. The k-th run ends at index k or later, so the
	// prefix never overwrites a key still to be read.
	const removed = 1 << 63
	kept, removals, net := 0, 0, 0
	for i, k := range src {
		if journal[uint32(k)].Kind == Added {
			net++
		} else {
			net--
		}
		if next := i + 1; next < n && src[next]>>32 == k>>32 && journal[uint32(src[next])].Tx == journal[uint32(k)].Tx {
			continue // the run of equal transmissions goes on
		}
		switch {
		case net < 0:
			src[kept] = removed | uint64(uint32(k))
			kept++
			removals++
		case net > 0:
			src[kept] = uint64(uint32(k))
			kept++
		}
		net = 0
	}
	changes := make([]Change, kept)
	r, a := 0, removals
	for _, k := range src[:kept] {
		tx := journal[uint32(k)].Tx
		if k&removed != 0 {
			changes[r] = Change{Kind: Removed, Tx: tx}
			r++
		} else {
			changes[a] = Change{Kind: Added, Tx: tx}
			a++
		}
	}
	return changes, keys
}

// radixMin is the shortest journal NetJournal radix-sorts. A pass costs a
// fixed 256 counters on top of its two reads of the keys, so below this
// length a comparison sort of the keys is faster: on journals recorded from
// churn-grid ops it was faster up to 64 entries and the radix from 65 on,
// where one op's journal holds about 20 (90 % hold at most 64) and a
// node-fault batch's hundreds to thousands.
const radixMin = 64

// sortSlot orders the positions of journal entries that share one slot by
// the rest of the transmission: flow, hop, attempt, instance, offset and
// link. Entries of one transmission are left in any order, as their sum
// and the transmission they net to do not depend on it.
func sortSlot(journal []Change, keys []uint64) {
	slices.SortFunc(keys, func(a, b uint64) int {
		x, y := &journal[uint32(a)].Tx, &journal[uint32(b)].Tx
		switch {
		case x.FlowID != y.FlowID:
			return cmp.Compare(x.FlowID, y.FlowID)
		case x.Hop != y.Hop:
			return cmp.Compare(x.Hop, y.Hop)
		case x.Attempt != y.Attempt:
			return cmp.Compare(x.Attempt, y.Attempt)
		case x.Instance != y.Instance:
			return cmp.Compare(x.Instance, y.Instance)
		case x.Offset != y.Offset:
			return cmp.Compare(x.Offset, y.Offset)
		case x.Link.From != y.Link.From:
			return cmp.Compare(x.Link.From, y.Link.From)
		}
		return cmp.Compare(x.Link.To, y.Link.To)
	})
}

// SortChanges puts a delta into the canonical dissemination order Diff
// produces: removals first, then additions, each by slot/flow/hop/attempt.
// The key is a total order on a valid change set, where one flow's hop and
// attempt in one slot name one transmission, so the unstable sort is
// deterministic.
func SortChanges(changes []Change) {
	slices.SortFunc(changes, func(a, b Change) int {
		if ra, rb := a.Kind == Removed, b.Kind == Removed; ra != rb {
			if ra {
				return -1
			}
			return 1
		}
		if a.Tx.Slot != b.Tx.Slot {
			return cmp.Compare(a.Tx.Slot, b.Tx.Slot)
		}
		if a.Tx.FlowID != b.Tx.FlowID {
			return cmp.Compare(a.Tx.FlowID, b.Tx.FlowID)
		}
		if a.Tx.Hop != b.Tx.Hop {
			return cmp.Compare(a.Tx.Hop, b.Tx.Hop)
		}
		return cmp.Compare(a.Tx.Attempt, b.Tx.Attempt)
	})
}

// Invert returns the delta that undoes changes: every addition becomes a
// removal and vice versa, re-sorted into canonical order. Applying a delta
// and then its inverse restores the original schedule, which is how a caller
// rolls back an incremental rescheduling operation it decided not to keep.
func Invert(changes []Change) []Change {
	out := make([]Change, len(changes))
	for i, c := range changes {
		k := Added
		if c.Kind == Added {
			k = Removed
		}
		out[i] = Change{Kind: k, Tx: c.Tx}
	}
	SortChanges(out)
	return out
}

// AffectedDevices returns the sorted node IDs whose link schedules a delta
// touches — the dissemination fan-out of an incremental update.
func AffectedDevices(changes []Change) []int {
	seen := make(map[int]bool)
	for _, c := range changes {
		seen[c.Tx.Link.From] = true
		seen[c.Tx.Link.To] = true
	}
	out := make([]int, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Apply replays a delta onto a schedule (removals first), yielding the new
// schedule state. It fails if any removal does not match an existing
// placement or any addition conflicts.
func Apply(s *Schedule, changes []Change) error {
	for _, c := range changes {
		if c.Kind != Removed {
			continue
		}
		if err := s.Remove(c.Tx); err != nil {
			return fmt.Errorf("apply: %w", err)
		}
	}
	for _, c := range changes {
		if c.Kind != Added {
			continue
		}
		if err := s.Place(c.Tx); err != nil {
			return fmt.Errorf("apply: %w", err)
		}
	}
	return nil
}

// Clone deep-copies a schedule (for diffing against a later state).
func (s *Schedule) Clone() *Schedule {
	cp, err := New(s.numSlots, s.numOffsets, s.numNodes)
	if err != nil {
		// Dimensions of an existing schedule are always valid.
		panic(fmt.Sprintf("schedule: clone: %v", err))
	}
	cp.Reserve(len(s.txs))
	for _, tx := range s.txs {
		if err := cp.Place(tx); err != nil {
			panic(fmt.Sprintf("schedule: clone: %v", err))
		}
	}
	return cp
}
