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
// of Place, Remove, Diff/Apply replays, and bulk rollbacks, and after every
// step checks each index structure against a from-scratch recount:
//
//   - Pair.UnionCount vs the BusyUnionCount word scan (and both vs nothing
//     stale: the pair handles are created once and live across mutations),
//   - FirstFreeOffset / OccupiedOffsets vs the cells,
//   - NextSharedFreeSlot vs the per-slot NodeBusy walk.
func TestIndexMatchesNaiveScan(t *testing.T) {
	const (
		numSlots   = 90
		numOffsets = 4
		numNodes   = 14
		steps      = 400
	)
	rng := rand.New(rand.NewSource(42))
	s, err := New(numSlots, numOffsets, numNodes)
	if err != nil {
		t.Fatal(err)
	}
	// Long-lived pair handles: these must stay consistent through every
	// mutation below, exactly like the scheduler's per-link handles do.
	var pairs []*PairCount
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			pairs = append(pairs, s.Pair(u, v))
		}
	}
	var checkpoint *Schedule // Clone taken at a random step, for Diff/Apply
	nextID := 0

	check := func(step int) {
		t.Helper()
		for _, p := range pairs {
			from := rng.Intn(numSlots)
			to := from + rng.Intn(numSlots-from)
			got := p.UnionCount(from, to)
			want := s.BusyUnionCount(p.u, p.v, from, to)
			if got != want {
				t.Fatalf("step %d: Pair(%d,%d).UnionCount(%d,%d) = %d, scan = %d",
					step, p.u, p.v, from, to, got, want)
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
		switch op := rng.Intn(10); {
		case op < 5: // place
			tx := randomTx(rng, numSlots, numOffsets, numNodes, nextID)
			nextID++
			_ = s.Place(tx) // conflicts are fine: rejected placements must not corrupt the index
		case op < 7: // remove a random existing placement
			if s.Len() > 0 {
				tx := s.Txs()[rng.Intn(s.Len())]
				if err := s.Remove(tx); err != nil {
					t.Fatalf("step %d: remove: %v", step, err)
				}
			}
		case op < 8: // checkpoint for a later Diff/Apply replay
			checkpoint = s.Clone()
		case op < 9: // roll the live schedule back to the checkpoint via Diff/Apply
			if checkpoint != nil {
				delta, err := Diff(s, checkpoint)
				if err != nil {
					t.Fatalf("step %d: diff: %v", step, err)
				}
				if err := Apply(s, delta); err != nil {
					t.Fatalf("step %d: apply: %v", step, err)
				}
			}
		default: // bulk rollback: drop the most recent placements one by one
			n := rng.Intn(5)
			for i := 0; i < n && s.Len() > 0; i++ {
				tx := s.Txs()[s.Len()-1]
				if err := s.Remove(tx); err != nil {
					t.Fatalf("step %d: rollback: %v", step, err)
				}
			}
		}
		check(step)
	}
	if st := s.IndexStats(); st.PairQueries == 0 || st.PairRebuilds == 0 {
		t.Fatalf("index stats did not accumulate: %+v", st)
	}
}

// TestPairCountBounds pins the clamping behavior of the O(1) path to the
// scan's: negative, overlong, and inverted ranges.
func TestPairCountBounds(t *testing.T) {
	s, err := New(70, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range []Tx{
		{FlowID: 1, Link: flow.Link{From: 0, To: 1}, Slot: 0},
		{FlowID: 2, Link: flow.Link{From: 0, To: 1}, Slot: 63},
		{FlowID: 3, Link: flow.Link{From: 0, To: 1}, Slot: 64},
		{FlowID: 4, Link: flow.Link{From: 0, To: 1}, Slot: 69},
	} {
		if err := s.Place(tx); err != nil {
			t.Fatal(err)
		}
	}
	p := s.Pair(0, 1)
	cases := [][2]int{{-5, 1000}, {0, 69}, {63, 64}, {64, 64}, {69, 69}, {10, 5}, {0, 0}, {63, 63}}
	for _, c := range cases {
		if got, want := p.UnionCount(c[0], c[1]), s.BusyUnionCount(0, 1, c[0], c[1]); got != want {
			t.Fatalf("UnionCount(%d,%d) = %d, scan = %d", c[0], c[1], got, want)
		}
	}
	if s.Pair(-1, 0) != nil || s.Pair(0, 99) != nil {
		t.Fatal("out-of-range Pair must return nil")
	}
	// Same unordered pair shares one handle.
	if s.Pair(1, 0) != p {
		t.Fatal("Pair(1,0) should return the Pair(0,1) handle")
	}
}
