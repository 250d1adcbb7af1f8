package schedule

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"wsan/internal/flow"
	"wsan/internal/graph"
)

func mustNew(t testing.TB, slots, offsets, nodes int) *Schedule {
	t.Helper()
	s, err := New(slots, offsets, nodes)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func tx(flowID, from, to, slot, offset int) Tx {
	return Tx{FlowID: flowID, Link: flow.Link{From: from, To: to}, Slot: slot, Offset: offset}
}

func TestNewValidation(t *testing.T) {
	for _, dims := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 1, 1}} {
		if _, err := New(dims[0], dims[1], dims[2]); err == nil {
			t.Errorf("New(%v) should fail", dims)
		}
	}
}

// TestNewRejectsHugeDimensions feeds dimensions whose cell table or busy
// bitsets overflow an int, or would pass the runtime's allocation limit:
// New and Reset must return an error, not panic in make, and a failed Reset
// must leave the schedule as it was.
func TestNewRejectsHugeDimensions(t *testing.T) {
	const maxInt = int(^uint(0) >> 1)
	for _, dims := range [][3]int{
		{1 << 62, 2, 4},             // numSlots×numOffsets overflows
		{1 << 62, 1, 4},             // fits an int, not an allocation
		{maxInt, 1, 1},              // numSlots+63 overflows
		{10, maxInt, 4},             // numOffsets+63 overflows
		{64, 1, 1 << 62},            // numNodes×words
		{1 << 40, 1 << 30, 1 << 20}, // all three
	} {
		if _, err := New(dims[0], dims[1], dims[2]); err == nil {
			t.Errorf("New(%v) should fail", dims)
		}
		s := mustNew(t, 10, 2, 4)
		if err := s.Place(tx(0, 0, 1, 3, 1)); err != nil {
			t.Fatal(err)
		}
		if err := s.Reset(dims[0], dims[1], dims[2]); err == nil {
			t.Errorf("Reset(%v) should fail", dims)
		}
		if s.NumSlots() != 10 || s.NumOffsets() != 2 || s.NumNodes() != 4 || s.Len() != 1 {
			t.Errorf("failed Reset(%v) changed the schedule", dims)
		}
	}
}

func TestPlaceAndQuery(t *testing.T) {
	s := mustNew(t, 100, 4, 10)
	if err := s.Place(tx(0, 1, 2, 5, 0)); err != nil {
		t.Fatal(err)
	}
	if !s.NodeBusy(1, 5) || !s.NodeBusy(2, 5) {
		t.Error("endpoints should be busy in slot 5")
	}
	if s.NodeBusy(3, 5) || s.NodeBusy(1, 6) {
		t.Error("unrelated node/slot should be idle")
	}
	if got := len(s.Cell(5, 0, nil)); got != 1 {
		t.Errorf("Cell len = %d, want 1", got)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestPlaceRejectsConflicts(t *testing.T) {
	s := mustNew(t, 10, 2, 6)
	if err := s.Place(tx(0, 0, 1, 3, 0)); err != nil {
		t.Fatal(err)
	}
	conflicts := []Tx{
		tx(1, 0, 2, 3, 1), // shares sender 0
		tx(1, 2, 0, 3, 1), // receiver is busy sender
		tx(1, 1, 3, 3, 1), // sender is busy receiver
		tx(1, 4, 1, 3, 1), // shares receiver 1
	}
	for _, c := range conflicts {
		if err := s.Place(c); err == nil {
			t.Errorf("Place(%+v) should conflict", c)
		}
	}
	// Disjoint nodes in the same slot are fine.
	if err := s.Place(tx(1, 4, 5, 3, 1)); err != nil {
		t.Errorf("disjoint transmission rejected: %v", err)
	}
}

func TestPlaceRejectsOutOfRange(t *testing.T) {
	s := mustNew(t, 10, 2, 4)
	bad := []Tx{
		tx(0, 0, 1, -1, 0),
		tx(0, 0, 1, 10, 0),
		tx(0, 0, 1, 0, 2),
		tx(0, 0, 1, 0, -1),
		tx(0, 0, 9, 0, 0),
		tx(0, 2, 2, 0, 0),
	}
	for _, b := range bad {
		if err := s.Place(b); err == nil {
			t.Errorf("Place(%+v) should fail", b)
		}
	}
}

func TestBusyUnionCount(t *testing.T) {
	s := mustNew(t, 200, 2, 8)
	// Node 0 busy at slots 10, 20, 130; node 1 busy at slots 20, 64.
	for _, p := range []struct{ a, b, slot int }{
		{0, 2, 10}, {0, 3, 20}, {0, 4, 130}, {5, 1, 64},
	} {
		if err := s.Place(tx(0, p.a, p.b, p.slot, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Note slot 20 marks both 0 and 3; 64 marks 5 and 1.
	tests := []struct {
		u, v, from, to, want int
	}{
		{0, 1, 0, 199, 4},   // 10, 20, 64, 130
		{0, 1, 11, 199, 3},  // 20, 64, 130
		{0, 1, 21, 129, 1},  // 64
		{0, 1, 65, 129, 0},  //
		{0, 1, 10, 10, 1},   // exactly slot 10
		{0, 1, 64, 64, 1},   // word boundary
		{6, 7, 0, 199, 0},   // idle nodes
		{0, 1, 150, 100, 0}, // empty range
		{0, 1, -5, 500, 4},  // clamped
	}
	for _, tc := range tests {
		if got := s.BusyUnionCount(tc.u, tc.v, tc.from, tc.to); got != tc.want {
			t.Errorf("BusyUnionCount(%d,%d,%d,%d) = %d, want %d",
				tc.u, tc.v, tc.from, tc.to, got, tc.want)
		}
	}
}

// Property: BusyUnionCount matches a naive per-slot scan.
func TestBusyUnionCountMatchesNaive(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nSlots := 1 + rng.Intn(300)
		s, err := New(nSlots, 2, 20)
		if err != nil {
			return false
		}
		for i := 0; i < 40; i++ {
			a, b := rng.Intn(20), rng.Intn(20)
			if a == b {
				continue
			}
			slot := rng.Intn(nSlots)
			_ = s.Place(tx(i, a, b, slot, rng.Intn(2))) // conflicts allowed to fail
		}
		u, v := rng.Intn(20), rng.Intn(20)
		from, to := rng.Intn(nSlots), rng.Intn(nSlots)
		naive := 0
		lo, hi := from, to
		for sl := lo; sl <= hi; sl++ {
			if s.NodeBusy(u, sl) || s.NodeBusy(v, sl) {
				naive++
			}
		}
		return s.BusyUnionCount(u, v, from, to) == naive
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRemove(t *testing.T) {
	s := mustNew(t, 10, 2, 6)
	a := tx(0, 0, 1, 3, 0)
	b := tx(1, 2, 3, 3, 1)
	if err := s.Place(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(a); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if s.NodeBusy(0, 3) || s.NodeBusy(1, 3) {
		t.Error("removed endpoints still busy")
	}
	if !s.NodeBusy(2, 3) {
		t.Error("remaining transmission lost its busy bits")
	}
	if got := len(s.Cell(3, 0, nil)); got != 0 {
		t.Errorf("cell load = %d, want 0", got)
	}
	// The slot is free again for a conflicting placement.
	if err := s.Place(tx(2, 0, 4, 3, 0)); err != nil {
		t.Errorf("slot should be reusable after Remove: %v", err)
	}
}

func TestRemoveNotPlaced(t *testing.T) {
	s := mustNew(t, 10, 2, 6)
	if err := s.Remove(tx(0, 0, 1, 3, 0)); err == nil {
		t.Error("removing an absent transmission should fail")
	}
	if err := s.Place(tx(0, 0, 1, 3, 0)); err != nil {
		t.Fatal(err)
	}
	// Same link, different slot: still absent.
	if err := s.Remove(tx(0, 0, 1, 4, 0)); err == nil {
		t.Error("mismatched placement should fail")
	}
}

func TestPlaceRemovePlaceRoundTrip(t *testing.T) {
	s := mustNew(t, 10, 2, 6)
	a := tx(0, 0, 1, 3, 0)
	for i := 0; i < 5; i++ {
		if err := s.Place(a); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if err := s.Remove(a); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d after balanced place/remove", s.Len())
	}
}

// TestRemoveWholeFlowsMatchesScan removes whole flows from two copies of a
// schedule, one reading each flow's transmissions through FlowTxs and one
// through a filtered scan of Txs, with fresh placements in between, and
// requires the same Txs — transmissions and order — after every flow. The
// scan copy's position index is built by its first Remove, the other's by
// its first FlowTxs.
func TestRemoveWholeFlowsMatchesScan(t *testing.T) {
	const slots, offsets, nodes = 120, 3, 12
	for seed := int64(0); seed < 20; seed++ {
		a := randomSchedule(t, seed, slots, offsets, nodes, 300)
		b := a.Clone()
		rng := rand.New(rand.NewSource(seed))
		for step, id := range rng.Perm(8) { // randomSchedule draws flows 0..5
			for _, txn := range a.FlowTxs(id, nil) {
				if err := a.Remove(txn); err != nil {
					t.Fatalf("seed %d: FlowTxs(%d) listed %v: %v", seed, id, txn, err)
				}
			}
			for _, txn := range scanFlowTxs(b, id) {
				if err := b.Remove(txn); err != nil {
					t.Fatal(err)
				}
			}
			if !slices.Equal(a.Txs(), b.Txs()) {
				t.Fatalf("seed %d: after removing flow %d the transmission lists differ:\n%v\n%v",
					seed, id, a.Txs(), b.Txs())
			}
			for k := 0; k < 10; k++ {
				txn := randomTx(rng, slots, offsets, nodes, 10+step)
				if errA, errB := a.Place(txn), b.Place(txn); (errA == nil) != (errB == nil) {
					t.Fatalf("seed %d: Place(%v) = %v and %v on equal schedules", seed, txn, errA, errB)
				}
			}
			checkFlowTxs(t, b)
		}
	}
}

func TestValidateCleanSchedule(t *testing.T) {
	s := mustNew(t, 10, 2, 8)
	if err := s.Place(tx(0, 0, 1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(tx(1, 2, 3, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(nil, 0); err != nil {
		t.Errorf("clean schedule should validate: %v", err)
	}
}

func TestValidateDetectsReuseWhenDisabled(t *testing.T) {
	s := mustNew(t, 10, 2, 8)
	if err := s.Place(tx(0, 0, 1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(tx(1, 2, 3, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(nil, 0); err == nil {
		t.Error("reuse with rhoT=0 should fail validation")
	}
}

func TestValidateReuseHopConstraint(t *testing.T) {
	// Line graph 0-1-2-3-4-5: hop(0,3)=3, etc.
	g := graph.New(6)
	for i := 0; i < 5; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	hop := g.AllPairsHop()
	// 0→1 and 4→5 share a cell: hop(0,5)=5, hop(4,1)=3 → ok at ρ_t=3.
	s := mustNew(t, 10, 2, 6)
	if err := s.Place(tx(0, 0, 1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(tx(1, 4, 5, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(hop, 3); err != nil {
		t.Errorf("ρ=3 reuse should validate: %v", err)
	}
	if err := s.Validate(hop, 4); err == nil {
		t.Error("ρ_t=4 should reject hop-3 reuse")
	}
	if err := s.Validate(nil, 3); err == nil {
		t.Error("missing hop matrix with reuse present should fail")
	}
}

func TestTxPerChannelHist(t *testing.T) {
	s := mustNew(t, 10, 2, 12)
	placements := []Tx{
		tx(0, 0, 1, 0, 0),
		tx(1, 2, 3, 0, 0),
		tx(2, 4, 5, 0, 1),
		tx(3, 6, 7, 1, 0),
	}
	for _, p := range placements {
		if err := s.Place(p); err != nil {
			t.Fatal(err)
		}
	}
	hist := s.TxPerChannelHist()
	if hist[1] != 2 || hist[2] != 1 {
		t.Errorf("hist = %v, want map[1:2 2:1]", hist)
	}
}

func TestReuseHopHist(t *testing.T) {
	g := graph.New(8)
	for i := 0; i < 7; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	hop := g.AllPairsHop()
	s := mustNew(t, 10, 2, 8)
	// Cell (0,0): 0→1 and 5→6. min(hop(0,6)=6, hop(5,1)=4) = 4.
	if err := s.Place(tx(0, 0, 1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(tx(1, 5, 6, 0, 0)); err != nil {
		t.Fatal(err)
	}
	hist := s.ReuseHopHist(hop)
	if hist[4] != 1 || len(hist) != 1 {
		t.Errorf("hist = %v, want map[4:1]", hist)
	}
}

func TestReusedLinks(t *testing.T) {
	s := mustNew(t, 10, 2, 10)
	if err := s.Place(tx(0, 0, 1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(tx(1, 4, 5, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(tx(2, 6, 7, 1, 0)); err != nil {
		t.Fatal(err)
	}
	reused := s.ReusedLinks()
	if len(reused) != 2 {
		t.Fatalf("reused = %v, want 2 links", reused)
	}
	if !reused[[2]int{0, 1}] || !reused[[2]int{4, 5}] {
		t.Errorf("wrong reused set: %v", reused)
	}
	if reused[[2]int{6, 7}] {
		t.Error("solo link marked reused")
	}
}

func BenchmarkBusyUnionCount(b *testing.B) {
	s, err := New(800, 8, 80)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		_ = s.Place(tx(i, rng.Intn(80), rng.Intn(80), rng.Intn(800), rng.Intn(8)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.BusyUnionCount(i%80, (i+7)%80, 100, 700)
	}
}

// BenchmarkBusyUnionNaive is the ablation baseline for the bitset design
// decision called out in DESIGN.md.
func BenchmarkBusyUnionNaive(b *testing.B) {
	s, err := New(800, 8, 80)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		_ = s.Place(tx(i, rng.Intn(80), rng.Intn(80), rng.Intn(800), rng.Intn(8)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		u, v := i%80, (i+7)%80
		for slot := 100; slot <= 700; slot++ {
			if s.NodeBusy(u, slot) || s.NodeBusy(v, slot) {
				count++
			}
		}
		_ = count
	}
}

// TestCellLinksWideNodeSpace covers the grid without a packed link column:
// above 65535 nodes a link no longer packs into 16-bit halves, so CellLinks
// is nil while placements, removals and clones keep every other index exact,
// and a Reset into a small node space brings the column back.
func TestCellLinksWideNodeSpace(t *testing.T) {
	s := mustNew(t, 8, 2, 70000)
	for _, x := range []Tx{tx(0, 69998, 69999, 3, 0), tx(1, 0, 1, 3, 0), tx(2, 2, 3, 3, 1)} {
		if err := s.Place(x); err != nil {
			t.Fatal(err)
		}
	}
	if s.CellLinks(3) != nil {
		t.Fatal("CellLinks non-nil with 70000 nodes")
	}
	checkIndexes(t, s)
	if err := s.Remove(tx(1, 0, 1, 3, 0)); err != nil {
		t.Fatal(err)
	}
	checkIndexes(t, s)
	checkIndexes(t, s.Clone())
	if err := s.Reset(8, 2, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(tx(0, 8, 9, 3, 0)); err != nil {
		t.Fatal(err)
	}
	if got := s.CellLinks(3); len(got) != 2 || got[0] != 8<<16|9 {
		t.Fatalf("CellLinks after Reset to 10 nodes = %#x", got)
	}
	if err := s.Reset(8, 2, 70000); err != nil {
		t.Fatal(err)
	}
	if s.CellLinks(3) != nil {
		t.Fatal("CellLinks non-nil after Reset to 70000 nodes")
	}
}

// TestEachFlowSlotLinkSpansNoMutation: the in-place view of a flow's
// transmissions cannot span a grid mutation. A callback that places,
// removes or removes a whole flow makes the iteration panic as it returns,
// before any read of a moved transmission; a callback that only reads runs
// to the end. make ci runs this under the race detector.
func TestEachFlowSlotLinkSpansNoMutation(t *testing.T) {
	build := func() *Schedule {
		s := mustNew(t, 10, 1, 6)
		for i, tx := range []Tx{
			{FlowID: 1, Link: flow.Link{From: 0, To: 1}, Slot: 0},
			{FlowID: 2, Link: flow.Link{From: 2, To: 3}, Slot: 0},
			{FlowID: 1, Hop: 1, Link: flow.Link{From: 1, To: 2}, Slot: 1},
			{FlowID: 1, Instance: 1, Link: flow.Link{From: 0, To: 1}, Slot: 5},
		} {
			if err := s.Place(tx); err != nil {
				t.Fatalf("tx %d: %v", i, err)
			}
		}
		return s
	}
	for _, tc := range []struct {
		name   string
		mutate func(s *Schedule)
	}{
		{"place", func(s *Schedule) { _ = s.Place(Tx{FlowID: 3, Link: flow.Link{From: 4, To: 5}, Slot: 9}) }},
		{"remove", func(s *Schedule) { _ = s.Remove(s.Txs()[1]) }},
		{"remove flow", func(s *Schedule) { s.RemoveFlow(2, nil) }},
		{"remove own flow", func(s *Schedule) { s.RemoveFlow(1, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := build()
			visits := 0
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "spans a grid mutation") {
						t.Fatalf("recovered %v, want the span panic", r)
					}
				}()
				s.EachFlowSlotLink(1, func(int, flow.Link) {
					visits++
					if visits == 2 {
						tc.mutate(s)
					}
				})
			}()
			if visits != 2 {
				t.Fatalf("%d visits, want the iteration stopped at the mutating second", visits)
			}
		})
	}
	s := build()
	var slots []int
	s.EachFlowSlotLink(1, func(slot int, _ flow.Link) { slots = append(slots, slot) })
	if !slices.Equal(slots, []int{0, 1, 5}) {
		t.Fatalf("read-only visit saw slots %v, want [0 1 5]", slots)
	}
}

// churnedSchedule is a grid shaped like one delta-churn plant: 500 flows of
// up to 16 transmissions on 1600 slots, 8 offsets and 140 nodes, whose
// transmission list has been shuffled by a round of whole-flow removals and
// re-placements.
func churnedSchedule(b *testing.B) *Schedule {
	s, err := New(1600, 8, 140)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for f := 0; f < 500; f++ {
		for n := 0; n < 16; n++ {
			_ = s.Place(Tx{FlowID: f, Hop: n, Link: flow.Link{From: rng.Intn(140), To: rng.Intn(140)},
				Slot: rng.Intn(1600), Offset: rng.Intn(8)})
		}
	}
	for f := 0; f < 500; f += 3 {
		for _, tx := range s.RemoveFlow(f, nil) {
			_ = s.Place(tx)
		}
	}
	return s
}

// BenchmarkRemoveFlow times removing one flow's transmissions with
// RemoveFlow and placing them back; BenchmarkRemoveFlowLoop does the same
// with a loop of Remove over FlowTxs, which leaves the same grid.
func BenchmarkRemoveFlow(b *testing.B) {
	s := churnedSchedule(b)
	var buf []Tx
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.RemoveFlow(i%500, buf[:0])
		for _, tx := range buf {
			_ = s.Place(tx)
		}
	}
}

func BenchmarkRemoveFlowLoop(b *testing.B) {
	s := churnedSchedule(b)
	var buf []Tx
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.FlowTxs(i%500, buf[:0])
		for _, tx := range buf {
			_ = s.Remove(tx)
		}
		for _, tx := range buf {
			_ = s.Place(tx)
		}
	}
}
