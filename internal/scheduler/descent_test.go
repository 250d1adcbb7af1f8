package scheduler

import (
	"testing"

	"wsan/internal/flow"
	"wsan/internal/graph"
	"wsan/internal/schedule"
)

// TestPlaceRCFallbackPrefersPermissive pins the fallback rule of Algorithm 1
// when laxity never reaches zero: keep the earliest feasible slot, and among
// placements tied on that slot the most permissive (highest-ρ) one. The old
// code kept whatever findSlot returned last — the lowest-ρ, most aggressive
// placement — even when the extra ρ steps bought no earlier slot.
//
// Constructed scenario on a 10-node line (G_R distances = index gaps),
// placing link 0→1 with λ_R pinned to 3 and ρ_t = 2, two offsets:
//
//	slot 0, offset 0: {8→9, 6→7}  load 2, min distance d(6,1) = 5:
//	                              compatible at ρ=3 and ρ=2
//	slot 0, offset 1: {3→4}       load 1, min distance d(3,1) = 2:
//	                              compatible only at ρ=2
//	slot 1+:          empty
//
// The ρ search sees: ρ=∞ → slot 1 (slot 0 full); ρ=3 → (0,0) (offset 1
// incompatible); ρ=2 → (0,1) (least-loaded of the two). With the deadline
// budget forced negative, the fixed fallback keeps (0,0) — slot 0 beats
// slot 1, and on the slot-0 tie the ρ=3 placement stands. The old rule
// returned (0,1). The scenario also runs on a 70000-node grid, which has
// no packed link column, so the reuse distances come from the cells.
//
// The counters are placeRCFallback's: one slot examined (slot 0, which
// places), its M = 2 cells' distances computed fresh, two ρ steps (3 and
// 2), one fallback, and one laxity failure per level that provably found
// slot 0, min(5, λ_R) − ρ_t + 1 = 2. A level-by-level descent also counts
// ρ=∞'s failure at slot 1 (3 failures) and examines every endpoint-free
// slot it scans; the fallback does not replay levels it proves cannot
// pass.
func TestPlaceRCFallbackPrefersPermissive(t *testing.T) {
	g := graph.New(10)
	for i := 0; i < 9; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	hop := g.AllPairsHop()
	for _, nodes := range []int{10, 70000} {
		sched, err := schedule.New(8, 2, nodes)
		if err != nil {
			t.Fatal(err)
		}
		for _, tx := range []schedule.Tx{
			{FlowID: 1, Link: flow.Link{From: 8, To: 9}, Slot: 0, Offset: 0},
			{FlowID: 2, Link: flow.Link{From: 6, To: 7}, Slot: 0, Offset: 0},
			{FlowID: 3, Link: flow.Link{From: 3, To: 4}, Slot: 0, Offset: 1},
		} {
			if err := sched.Place(tx); err != nil {
				t.Fatal(err)
			}
		}
		eng := newEngine(Config{Algorithm: RC, NumChannels: 2, RhoT: 2, HopGR: hop}, sched, 3)
		f := &flow.Flow{ID: 0, Src: 0, Dst: 1, Period: 8, Deadline: 7,
			Route: []flow.Link{{From: 0, To: 1}}}
		eng.setFlow(f)
		tx := schedule.Tx{FlowID: 0, Link: flow.Link{From: 0, To: 1}}

		// remaining=10 forces laxity = 6 − s − 10 < 0 at every candidate,
		// so placeRC runs the ρ search to exhaustion and must fall back.
		slot, offset, ok := eng.placeOne(f, &tx, 0, 6, 10)
		if !ok || slot != 0 || offset != 0 || !eng.placedShared {
			t.Errorf("nodes=%d: fallback = (%d,%d,%v) shared=%v, want the highest-ρ slot-0 placement (0,0) in a shared cell",
				nodes, slot, offset, ok, eng.placedShared)
		}
		want := schedCounters{slotsExamined: 1, laxityFail: 2, rhoSteps: 2, laxityFallbacks: 1, memoMisses: 2}
		if eng.mets != want {
			t.Errorf("nodes=%d: counters %+v, want %+v", nodes, eng.mets, want)
		}
	}
}

// TestCertifiedFallbackBoundary pins the cold descent's certificate at its
// boundary. placeRC skips the candidate table and goes straight to the
// fallback when the terminal free slot sf fails ρ=∞ and noLevelPasses
// bounds every slot of [s0, sf] below zero: first the whole range by
// lax(sf) + (sf − s0), then its pieces, here one slot each. A bound of
// exactly 0 must not fire, since a candidate may pass there.
//
// Scenario on a 10-node line (G_R distances = index gaps), placing hop 0
// (link 0→1) of the route 0→1→2→3, one attempt per hop, so two
// transmissions remain; λ_R = 3 and ρ_t = 2 give two finite levels:
//
//	slot 0, offset 0: {8→9}  compatible at ρ=3 (min distance 7)
//	slot 0, offset 1: {6→7}  compatible at ρ=3 (min distance 5)
//	slot 1:           free   (sf; the third case puts {2→3} at offset 0)
//	slot 2, offset 0: {3→4}  busies node 3: one conflict slot for hop 2
//
// Without {2→3}, C(0) = C(1) = 1, so lax(s) = deadline − s − 3. At
// deadline 3, lax(1) = −1 and the whole-range bound is 0: ρ=3 finds slot 0
// with lax(0) = 0 and places there. At deadline 2 the whole-range bound is
// −1 (lax(1) is laxity's cheap exit, −1, minus C(1)): every level fails and
// the descent falls back to slot 0. With {2→3} at deadline 3, slot 1 busies
// both later hops' unions, so C(0) = 3: the whole-range bound is still 0,
// but the one-slot pieces read lax(1) = −1 and lax(0) = −2 and fire. Only
// the first may build the table.
//
// Every case places at (0,0), the least-loaded ρ=3 cell of slot 0, and
// counts the two endpoint-free slots 0 and 1 as examined and slot 0's M = 2
// cells as fresh distances. The pass counts ρ=∞'s failure at slot 1, one ρ
// step and the pass, and reads slot 0's two memoized cells once at ρ=3. A
// fallback counts ρ=∞'s failure and both finite levels' (3), two ρ steps and
// the fallback. These are the level-by-level descent's counts too, but for
// slots examined and the memo, which it does not keep.
func TestCertifiedFallbackBoundary(t *testing.T) {
	g := graph.New(10)
	for i := 0; i < 9; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	hop := g.AllPairsHop()
	f := &flow.Flow{ID: 0, Src: 0, Dst: 3, Period: 8, Deadline: 8,
		Route: []flow.Link{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}}}
	fellBack := schedCounters{slotsExamined: 2, laxityFail: 3, rhoSteps: 2, laxityFallbacks: 1, memoMisses: 2}
	for _, tc := range []struct {
		name     string
		deadline int
		extra    []schedule.Tx
		fires    bool
		want     schedCounters
	}{
		{"bound 0", 3, nil, false,
			schedCounters{slotsExamined: 2, laxityPass: 1, laxityFail: 1, rhoSteps: 1, memoHits: 2, memoMisses: 2}},
		{"bound -1", 2, nil, true, fellBack},
		{"pieces", 3, []schedule.Tx{{FlowID: 4, Link: flow.Link{From: 2, To: 3}, Slot: 1, Offset: 0}}, true, fellBack},
	} {
		sched, err := schedule.New(8, 2, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, tx := range append([]schedule.Tx{
			{FlowID: 1, Link: flow.Link{From: 8, To: 9}, Slot: 0, Offset: 0},
			{FlowID: 2, Link: flow.Link{From: 6, To: 7}, Slot: 0, Offset: 1},
			{FlowID: 3, Link: flow.Link{From: 3, To: 4}, Slot: 2, Offset: 0},
		}, tc.extra...) {
			if err := sched.Place(tx); err != nil {
				t.Fatal(err)
			}
		}
		eng := newEngine(Config{Algorithm: RC, NumChannels: 2, RhoT: 2, HopGR: hop}, sched, 3)
		eng.setFlow(f)
		tx := schedule.Tx{FlowID: 0, Link: f.Route[0]}
		slot, offset, ok := eng.placeOne(f, &tx, 0, tc.deadline, 2)
		if !ok || slot != 0 || offset != 0 || !eng.placedShared {
			t.Errorf("%s: placement (%d,%d,%v) shared=%v, want (0,0) in a shared cell",
				tc.name, slot, offset, ok, eng.placedShared)
		}
		if (len(eng.cands) == 0) != tc.fires {
			t.Errorf("%s: candidate table built = %v, want %v", tc.name, len(eng.cands) > 0, !tc.fires)
		}
		if eng.mets != tc.want {
			t.Errorf("%s: counters %+v, want %+v", tc.name, eng.mets, tc.want)
		}
	}
}

// TestRejectedPlacementIsError checks that a cell the schedule rejects is
// reported as an engine error, not as a deadline miss. The engine only
// proposes conflict-free cells, so the test plants a stale warm-start cache
// that still lists slot 2 as free for link 0→1 after 2→1 took it.
func TestRejectedPlacementIsError(t *testing.T) {
	g := graph.New(4)
	for i := 0; i < 3; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	sched, err := schedule.New(8, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range []schedule.Tx{
		{FlowID: 1, Link: flow.Link{From: 0, To: 3}, Slot: 0},
		{FlowID: 2, Link: flow.Link{From: 2, To: 1}, Slot: 2},
	} {
		if err := sched.Place(tx); err != nil {
			t.Fatal(err)
		}
	}
	eng := newEngine(Config{Algorithm: RC, NumChannels: 2, RhoT: 2,
		HopGR: g.AllPairsHop()}, sched, 3)
	eng.cands = []slotCand{{slot: 2, freeOff: 0}}
	eng.candsU, eng.candsV, eng.candsDead = 0, 1, 7
	eng.candsPlaced, eng.candsValid, eng.candsVer = 0, true, sched.Version()
	f := &flow.Flow{ID: 0, Src: 0, Dst: 1, Period: 8, Deadline: 8,
		Route: []flow.Link{{From: 0, To: 1}}}
	ok, err := eng.scheduleInstance(f, 0)
	if err == nil || ok {
		t.Fatalf("scheduleInstance = (%v, %v), want a rejected-placement error", ok, err)
	}
	if eng.mets.deadlineMisses != 0 {
		t.Errorf("deadlineMisses = %d, want 0", eng.mets.deadlineMisses)
	}
}
