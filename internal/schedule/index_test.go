package schedule

import (
	"math/rand"
	"testing"

	"wsan/internal/flow"
)

// naiveFirstFreeOffset recounts a slot's first empty cell from the cells
// themselves.
func naiveFirstFreeOffset(s *Schedule, slot int) int {
	for c := 0; c < s.NumOffsets(); c++ {
		if len(s.Cell(slot, c, nil)) == 0 {
			return c
		}
	}
	return -1
}

// naiveOccupiedOffsets recounts a slot's non-empty cells.
func naiveOccupiedOffsets(s *Schedule, slot int) []int {
	var out []int
	for c := 0; c < s.NumOffsets(); c++ {
		if len(s.Cell(slot, c, nil)) > 0 {
			out = append(out, c)
		}
	}
	return out
}

// naiveBusyUnionCount recounts the slots of [from, to], clamped to the
// grid, in which u or v is busy, one NodeBusy test per slot.
func naiveBusyUnionCount(s *Schedule, u, v, from, to int) int {
	n := 0
	for slot := max(from, 0); slot <= min(to, s.NumSlots()-1); slot++ {
		if s.NodeBusy(u, slot) || s.NodeBusy(v, slot) {
			n++
		}
	}
	return n
}

// naiveNextSharedFreeSlot recounts the next slot where both nodes are idle.
func naiveNextSharedFreeSlot(s *Schedule, u, v, from, to int) int {
	if from < 0 {
		from = 0
	}
	if to >= s.NumSlots() {
		to = s.NumSlots() - 1
	}
	for slot := from; slot <= to; slot++ {
		if !s.NodeBusy(u, slot) && !s.NodeBusy(v, slot) {
			return slot
		}
	}
	return -1
}

// randomTx draws a placement proposal; it may well conflict, which the
// sequence below treats as a no-op.
func randomTx(rng *rand.Rand, numSlots, numOffsets, numNodes int, id int) Tx {
	u := rng.Intn(numNodes)
	v := rng.Intn(numNodes - 1)
	if v >= u {
		v++
	}
	return Tx{
		FlowID: id,
		Link:   flow.Link{From: u, To: v},
		Slot:   rng.Intn(numSlots),
		Offset: rng.Intn(numOffsets),
	}
}

// TestIndexMatchesNaiveScan drives a schedule through randomized sequences
// of Place, Remove, Diff/Apply replays, bulk rollbacks and same-shape
// Resets, and after every step checks each index query against a
// from-scratch recount:
//
//   - BusyUnionCount vs the per-slot NodeBusy walk, on windows that cross
//     word boundaries, start before slot 0, end past the grid, or are empty,
//   - FirstFreeOffset / OccupiedOffsets vs the cells,
//   - NextSharedFreeSlot vs the per-slot NodeBusy walk.
func TestIndexMatchesNaiveScan(t *testing.T) {
	const (
		numSlots   = 150
		numOffsets = 4
		numNodes   = 14
		steps      = 400
	)
	rng := rand.New(rand.NewSource(42))
	s, err := New(numSlots, numOffsets, numNodes)
	if err != nil {
		t.Fatal(err)
	}
	var checkpoint *Schedule // Clone taken at a random step, for Diff/Apply
	nextID := 0

	check := func(step int) {
		t.Helper()
		for u := 0; u < 6; u++ {
			for v := u + 1; v < 6; v++ {
				from, to := rng.Intn(numSlots+6)-3, rng.Intn(numSlots+6)-3
				if got, want := s.BusyUnionCount(u, v, from, to), naiveBusyUnionCount(s, u, v, from, to); got != want {
					t.Fatalf("step %d: BusyUnionCount(%d,%d,%d,%d) = %d, naive = %d",
						step, u, v, from, to, got, want)
				}
			}
		}
		slot := rng.Intn(numSlots)
		if got, want := s.FirstFreeOffset(slot), naiveFirstFreeOffset(s, slot); got != want {
			t.Fatalf("step %d: FirstFreeOffset(%d) = %d, naive = %d", step, slot, got, want)
		}
		occ := s.OccupiedOffsets(slot, nil)
		want := naiveOccupiedOffsets(s, slot)
		if len(occ) != len(want) {
			t.Fatalf("step %d: OccupiedOffsets(%d) = %v, naive = %v", step, slot, occ, want)
		}
		for i := range occ {
			if occ[i] != want[i] {
				t.Fatalf("step %d: OccupiedOffsets(%d) = %v, naive = %v", step, slot, occ, want)
			}
		}
		u, v := rng.Intn(numNodes), rng.Intn(numNodes)
		from := rng.Intn(numSlots)
		if got, want := s.NextSharedFreeSlot(u, v, from, numSlots-1),
			naiveNextSharedFreeSlot(s, u, v, from, numSlots-1); got != want {
			t.Fatalf("step %d: NextSharedFreeSlot(%d,%d,%d) = %d, naive = %d",
				step, u, v, from, got, want)
		}
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(41); {
		case op < 20: // place
			tx := randomTx(rng, numSlots, numOffsets, numNodes, nextID)
			nextID++
			_ = s.Place(tx) // conflicts are fine: rejected placements must not corrupt the index
		case op < 28: // remove a random existing placement
			if s.Len() > 0 {
				tx := s.Txs()[rng.Intn(s.Len())]
				if err := s.Remove(tx); err != nil {
					t.Fatalf("step %d: remove: %v", step, err)
				}
			}
		case op < 32: // checkpoint for a later Diff/Apply replay
			checkpoint = s.Clone()
		case op < 36: // roll the live schedule back to the checkpoint via Diff/Apply
			if checkpoint != nil {
				delta, err := Diff(s, checkpoint)
				if err != nil {
					t.Fatalf("step %d: diff: %v", step, err)
				}
				if err := Apply(s, delta); err != nil {
					t.Fatalf("step %d: apply: %v", step, err)
				}
			}
		case op < 40: // bulk rollback: drop the most recent placements one by one
			n := rng.Intn(5)
			for i := 0; i < n && s.Len() > 0; i++ {
				tx := s.Txs()[s.Len()-1]
				if err := s.Remove(tx); err != nil {
					t.Fatalf("step %d: rollback: %v", step, err)
				}
			}
		default: // recycle the grid in place, as full-reschedule scratch grids do
			if err := s.Reset(numSlots, numOffsets, numNodes); err != nil {
				t.Fatalf("step %d: reset: %v", step, err)
			}
		}
		check(step)
	}
}
