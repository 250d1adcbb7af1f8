package schedule

import (
	"cmp"
	"fmt"
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
// affected devices instead of a full schedule download.
func Diff(old, new *Schedule) ([]Change, error) {
	if old == nil || new == nil {
		return nil, fmt.Errorf("diff: nil schedule")
	}
	if old.NumSlots() != new.NumSlots() || old.NumOffsets() != new.NumOffsets() {
		return nil, fmt.Errorf("diff: dimensions differ (%d×%d vs %d×%d)",
			old.NumSlots(), old.NumOffsets(), new.NumSlots(), new.NumOffsets())
	}
	oldSet := make(map[Tx]bool, old.Len())
	for _, tx := range old.Txs() {
		oldSet[tx] = true
	}
	newSet := make(map[Tx]bool, new.Len())
	for _, tx := range new.Txs() {
		newSet[tx] = true
	}
	var changes []Change
	for tx := range oldSet {
		if !newSet[tx] {
			changes = append(changes, Change{Kind: Removed, Tx: tx})
		}
	}
	for tx := range newSet {
		if !oldSet[tx] {
			changes = append(changes, Change{Kind: Added, Tx: tx})
		}
	}
	SortChanges(changes)
	return changes, nil
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
