package schedule

import (
	"testing"

	"wsan/internal/flow"
)

// TestBusyUnionCountSurvivesResetCycle: shrinking the node space with Reset
// and growing it back within capacity must leave the regrown nodes' busy
// rows empty, so BusyUnionCount reads only what was placed after the
// Reset, never a busy bit left from before it.
func TestBusyUnionCountSurvivesResetCycle(t *testing.T) {
	s := mustNew(t, 64, 2, 4)
	if err := s.Place(tx(0, 2, 3, 5, 0)); err != nil {
		t.Fatal(err)
	}
	if got := s.BusyUnionCount(2, 3, 0, 63); got != 1 {
		t.Fatalf("BusyUnionCount before reset = %d, want 1", got)
	}
	if err := s.Reset(64, 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(64, 2, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(tx(1, 2, 3, 9, 0)); err != nil {
		t.Fatal(err)
	}
	if got := s.BusyUnionCount(2, 3, 0, 7); got != 0 {
		t.Fatalf("BusyUnionCount(2,3,0,7) after reset cycle = %d, want 0 (slot 5 was cleared)", got)
	}
	if got := s.BusyUnionCount(2, 3, 0, 63); got != 1 {
		t.Fatalf("BusyUnionCount after re-place = %d, want 1 (slot 9 only)", got)
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

// TestChurnedGridRetainsLiveStorage: a live grid whose transmissions keep
// moving — removed whole and re-placed into other cells — must hold
// storage for its current occupants, not for every cell it ever occupied.
// Each round shifts 24 flows of two transmissions each to fresh slots, 20
// of them sharing cells in pairs and 4 alone; each removal must leave what
// a loop of Remove leaves (checkRemoveFlow). After every round the cell
// table must be exactly the grid, and the transmission list and its next
// links must share one capacity within 1.5× the peak Len.
func TestChurnedGridRetainsLiveStorage(t *testing.T) {
	const slots, offsets, rounds = 2048, 2, 200
	s := mustNew(t, slots, offsets, 100)
	peak := 0
	for round := 0; round < rounds; round++ {
		if round > 0 {
			for f := 0; f < 24; f++ {
				checkRemoveFlow(t, s, f)
			}
		}
		for f := 0; f < 24; f++ {
			slot := (round*48 + f*2) % slots
			for hop := 0; hop < 2; hop++ {
				// Below flow 20, flows 2k and 2k+1 share each cell of
				// their pair of slots.
				tx := Tx{FlowID: f, Hop: hop, Link: flow.Link{From: 4 * f, To: 4*f + 1 + hop}, Slot: (slot + hop) % slots, Offset: f % 4 / 2}
				if f%2 == 1 && f < 20 {
					tx.Slot = (slot - 2 + hop + slots) % slots
				}
				if err := s.Place(tx); err != nil {
					t.Fatalf("round %d flow %d hop %d: %v", round, f, hop, err)
				}
				peak = max(peak, s.Len())
			}
		}
		if round%40 == 0 {
			checkIndexes(t, s)
		}
		switch {
		case len(s.head) != slots*offsets:
			t.Fatalf("round %d: %d cell heads for %d cells", round, len(s.head), slots*offsets)
		case cap(s.next) != cap(s.txs):
			t.Fatalf("round %d: next capacity %d, Txs capacity %d", round, cap(s.next), cap(s.txs))
		case 2*cap(s.txs) > 3*peak:
			t.Fatalf("round %d: Txs capacity %d past 1.5× the peak Len %d", round, cap(s.txs), peak)
		}
	}
}
