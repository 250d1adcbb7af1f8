package schedule

import (
	"math/rand"
	"testing"

	"wsan/internal/flow"
)

// TestPairCountPropertyUnderRollback is the version-stamp staleness property
// test: a seeded interleaving of placements, journaled suffix rollbacks (the
// delta schedulers' repair-ladder pattern), interior removals, same-shape
// Resets, and cached PairCount queries. After every mutation pattern the
// cached CountThrough/UnionCount answers must match the straight
// BusyUnionCount scan — any divergence means a mutation path changed a busy
// bitset without bumping its node's version stamp.
func TestPairCountPropertyUnderRollback(t *testing.T) {
	const slots, offs, nodes = 256, 4, 10
	iters := 4_000
	if testing.Short() {
		iters = 1_000
	}
	rng := rand.New(rand.NewSource(42))
	s := mustNew(t, slots, offs, nodes)
	var journal []Tx
	next := 0
	queries := 0
	check := func(stage string) {
		u, v := rng.Intn(nodes), rng.Intn(nodes)
		p := s.Pair(u, v)
		a, b := rng.Intn(slots), rng.Intn(slots)
		if a > b {
			a, b = b, a
		}
		if got, want := p.UnionCount(a, b), s.BusyUnionCount(u, v, a, b); got != want {
			t.Fatalf("%s: Pair(%d,%d).UnionCount(%d,%d) = %d, reference scan %d",
				stage, u, v, a, b, got, want)
		}
		if got, want := p.CountThrough(b), s.BusyUnionCount(u, v, 0, b); got != want {
			t.Fatalf("%s: Pair(%d,%d).CountThrough(%d) = %d, reference scan %d",
				stage, u, v, b, got, want)
		}
		queries++
	}
	for iter := 0; iter < iters; iter++ {
		switch op := rng.Intn(10); {
		case op < 5: // place a conflict-free transmission
			u, v := rng.Intn(nodes), rng.Intn(nodes)
			slot := rng.Intn(slots)
			if u == v || s.NodeBusy(u, slot) || s.NodeBusy(v, slot) {
				continue
			}
			txn := tx(next, u, v, slot, rng.Intn(offs))
			next++
			if err := s.Place(txn); err != nil {
				t.Fatal(err)
			}
			journal = append(journal, txn)
		case op < 7: // roll back a random journal suffix, newest first
			if len(journal) == 0 {
				continue
			}
			mark := rng.Intn(len(journal) + 1)
			for i := len(journal) - 1; i >= mark; i-- {
				if err := s.Remove(journal[i]); err != nil {
					t.Fatal(err)
				}
			}
			journal = journal[:mark]
		case op < 8: // remove one interior placement (flow removal pattern)
			if len(journal) == 0 {
				continue
			}
			i := rng.Intn(len(journal))
			if err := s.Remove(journal[i]); err != nil {
				t.Fatal(err)
			}
			journal = append(journal[:i], journal[i+1:]...)
		default:
			check("churn")
		}
		if (iter+1)%1000 == 0 {
			// A same-shape Reset recycles every backing allocation; cached
			// handles stay valid because every stamp is bumped past them.
			if err := s.Reset(slots, offs, nodes); err != nil {
				t.Fatal(err)
			}
			journal = journal[:0]
			check("post-reset")
		}
	}
	if queries == 0 || next == 0 {
		t.Fatalf("degenerate run: %d queries, %d placements", queries, next)
	}
}

// TestPairCountSurvivesResetCycle is the stamp-rewind regression: shrinking
// the node space with Reset and growing it back within capacity must leave
// every node's version stamp monotone. Before the fix, the grow path
// reallocated the stamp array, restarting the tail nodes at zero — a
// PairCount handle cached before the shrink could then collide with a
// restarted stamp and serve its stale pre-Reset words as fresh.
func TestPairCountSurvivesResetCycle(t *testing.T) {
	s := mustNew(t, 64, 2, 4)
	if err := s.Place(tx(0, 2, 3, 5, 0)); err != nil {
		t.Fatal(err)
	}
	p := s.Pair(2, 3)
	if got := p.CountThrough(63); got != 1 {
		t.Fatalf("CountThrough before reset = %d, want 1", got)
	}
	// Shrink the node space, then grow back to the handle's geometry.
	if err := s.Reset(64, 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(64, 2, 4); err != nil {
		t.Fatal(err)
	}
	// One placement bumps nodes 2 and 3 exactly as the original Place did;
	// with rewound stamps the handle's cached version matches by accident and
	// the stale slot-5 bit is served back.
	if err := s.Place(tx(1, 2, 3, 9, 0)); err != nil {
		t.Fatal(err)
	}
	if got, want := p.CountThrough(7), s.BusyUnionCount(2, 3, 0, 7); got != want {
		t.Fatalf("stale PairCount after reset cycle: CountThrough(7) = %d, reference %d", got, want)
	}
	if got := p.CountThrough(63); got != 1 {
		t.Fatalf("CountThrough after re-place = %d, want 1 (slot 9 only)", got)
	}
}

// TestResetEquivalentToNew: a Reset grid must be indistinguishable from a
// freshly constructed one — same dimensions, empty queries, and identical
// behavior for the same placement sequence — whether the dimensions shrink,
// grow, or stay, so arena-recycling callers can soak one grid forever.
func TestResetEquivalentToNew(t *testing.T) {
	s := mustNew(t, 100, 4, 10)
	for i := 0; i < 20; i++ {
		if err := s.Place(tx(i, i%9, i%9+1, i*4, i%4)); err != nil {
			t.Fatal(err)
		}
	}
	for _, dims := range [][3]int{{100, 4, 10}, {40, 2, 6}, {200, 8, 24}} {
		if err := s.Reset(dims[0], dims[1], dims[2]); err != nil {
			t.Fatal(err)
		}
		checkFullSlots(t, s)
		fresh := mustNew(t, dims[0], dims[1], dims[2])
		if s.NumSlots() != fresh.NumSlots() || s.NumOffsets() != fresh.NumOffsets() ||
			s.NumNodes() != fresh.NumNodes() || s.Len() != 0 {
			t.Fatalf("reset dims %v: got %dx%dx%d len %d",
				dims, s.NumSlots(), s.NumOffsets(), s.NumNodes(), s.Len())
		}
		for n := 0; n < dims[2]; n++ {
			for _, slot := range []int{0, dims[0] / 2, dims[0] - 1} {
				if s.NodeBusy(n, slot) {
					t.Fatalf("reset dims %v: node %d busy in slot %d", dims, n, slot)
				}
			}
		}
		// The same placements must land identically on both grids.
		for i := 0; i < 10; i++ {
			txn := tx(i, i%(dims[2]-1), i%(dims[2]-1)+1, (i*7)%dims[0], i%dims[1])
			errA, errB := s.Place(txn), fresh.Place(txn)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("reset dims %v: Place(%+v) diverged: %v vs %v", dims, txn, errA, errB)
			}
		}
		if s.Len() != fresh.Len() {
			t.Fatalf("reset dims %v: %d placed vs fresh %d", dims, s.Len(), fresh.Len())
		}
		for u := 0; u < dims[2]; u++ {
			for v := u + 1; v < dims[2]; v++ {
				if got, want := s.BusyUnionCount(u, v, 0, dims[0]-1),
					fresh.BusyUnionCount(u, v, 0, dims[0]-1); got != want {
					t.Fatalf("reset dims %v: BusyUnionCount(%d,%d) = %d, fresh %d",
						dims, u, v, got, want)
				}
			}
		}
	}
	if err := s.Reset(0, 1, 1); err == nil {
		t.Fatal("Reset with non-positive dimensions should fail")
	}
}

// TestChurnedGridReusesCellCarvings: a live grid whose transmissions keep
// moving — removed whole and re-placed into other cells — must hold cell
// storage for its current occupants, not for every cell it ever occupied.
// Each round shifts 24 flows of two transmissions each to fresh slots, 20
// of them sharing cells in pairs and 4 alone; after the first round the
// arenas must not grow, where keeping each visited cell's carving would
// need a chunk every few rounds.
func TestChurnedGridReusesCellCarvings(t *testing.T) {
	const slots, rounds = 2048, 200
	s := mustNew(t, slots, 2, 100)
	place := func(round int) {
		for f := 0; f < 24; f++ {
			slot := (round*48 + f*2) % slots
			for hop := 0; hop < 2; hop++ {
				// Below flow 20, flows 2k and 2k+1 share each cell of
				// their pair of slots.
				off := 0
				if f%4 >= 2 {
					off = 1
				}
				tx := Tx{FlowID: f, Hop: hop, Link: flow.Link{From: 4 * f, To: 4*f + 1 + hop}, Slot: (slot + hop) % slots, Offset: off}
				if f%2 == 1 && f < 20 {
					tx.Slot = (slot - 2 + hop + slots) % slots
				}
				if err := s.Place(tx); err != nil {
					t.Fatalf("round %d flow %d hop %d: %v", round, f, hop, err)
				}
			}
		}
	}
	place(0)
	chunks := len(s.arena.chunks) + len(s.pairArena.chunks)
	for round := 1; round < rounds; round++ {
		for f := 0; f < 24; f++ {
			if got := s.RemoveFlow(f, nil); len(got) != 2 {
				t.Fatalf("round %d: flow %d removed %d transmissions, want 2", round, f, len(got))
			}
		}
		place(round)
		if round%40 == 0 {
			checkIndexes(t, s)
		}
	}
	if got := len(s.arena.chunks) + len(s.pairArena.chunks); got != chunks {
		t.Fatalf("arenas grew from %d to %d chunks over %d rounds of churn", chunks, got, rounds)
	}
}
