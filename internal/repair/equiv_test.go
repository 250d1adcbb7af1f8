package repair

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"wsan/internal/flow"
	"wsan/internal/graph"
	"wsan/internal/routing"
	"wsan/internal/schedule"
	"wsan/internal/scheduler"
	"wsan/internal/topology"
)

// The ref* functions are verbatim copies of the repairer and the compactor
// as they were before both became ops of the scheduler's delta engine (the
// repair metrics flush dropped), kept as the oracle the ops must reproduce
// transmission for transmission.

func refReschedule(sched *schedule.Schedule, flows []*flow.Flow, degraded []flow.Link) (*Result, error) {
	if sched == nil {
		return nil, fmt.Errorf("repair: nil schedule")
	}
	byID := make(map[int]*flow.Flow, len(flows))
	for _, f := range flows {
		byID[f.ID] = f
	}
	degradedSet := make(map[flow.Link]bool, len(degraded))
	for _, l := range degraded {
		degradedSet[l] = true
	}
	res := &Result{DegradedLinks: len(degraded)}

	// Collect the victims: transmissions of degraded links in shared cells.
	var victims []schedule.Tx
	for _, tx := range sched.Txs() {
		if degradedSet[tx.Link] && len(sched.Cell(tx.Slot, tx.Offset, nil)) > 1 {
			victims = append(victims, tx)
		}
	}
	// Deterministic order: by flow, instance, hop, attempt.
	sort.Slice(victims, func(i, j int) bool {
		a, b := victims[i], victims[j]
		if a.FlowID != b.FlowID {
			return a.FlowID < b.FlowID
		}
		if a.Instance != b.Instance {
			return a.Instance < b.Instance
		}
		if a.Hop != b.Hop {
			return a.Hop < b.Hop
		}
		return a.Attempt < b.Attempt
	})

	var slotsScanned int64
	for _, tx := range victims {
		f := byID[tx.FlowID]
		if f == nil {
			return nil, fmt.Errorf("repair: schedule references unknown flow %d", tx.FlowID)
		}
		lo, hi, err := refWindow(sched, f, tx)
		if err != nil {
			return nil, err
		}
		if err := sched.Remove(tx); err != nil {
			return nil, fmt.Errorf("repair: %w", err)
		}
		moved := tx
		if slot, offset, ok := refFindExclusive(sched, tx.Link, lo, hi, &slotsScanned); ok {
			moved.Slot, moved.Offset = slot, offset
			if err := sched.Place(moved); err != nil {
				return nil, fmt.Errorf("repair: %w", err)
			}
			res.Moved++
			continue
		}
		// No exclusive cell available: restore the original placement.
		if err := sched.Place(tx); err != nil {
			return nil, fmt.Errorf("repair: restore: %w", err)
		}
		res.Failed = append(res.Failed, tx)
	}
	return res, nil
}

// refWindow computes the feasible slot range for tx: after the preceding
// transmission of its instance and before the following one (or the
// release/deadline bounds).
func refWindow(sched *schedule.Schedule, f *flow.Flow, tx schedule.Tx) (int, int, error) {
	release := f.Release(tx.Instance)
	lo := release
	hi := release + f.Deadline - 1
	for _, other := range sched.Txs() {
		if other.FlowID != tx.FlowID || other.Instance != tx.Instance {
			continue
		}
		if other == tx {
			continue
		}
		before := other.Hop < tx.Hop ||
			(other.Hop == tx.Hop && other.Attempt < tx.Attempt)
		if before {
			if other.Slot+1 > lo {
				lo = other.Slot + 1
			}
		} else if other.Slot-1 < hi {
			hi = other.Slot - 1
		}
	}
	if lo > hi {
		return 0, 0, fmt.Errorf("repair: flow %d instance %d hop %d has empty feasible window",
			tx.FlowID, tx.Instance, tx.Hop)
	}
	return lo, hi, nil
}

// refFindExclusive scans [lo, hi] for the earliest slot where the link's
// endpoints are idle and some channel offset is completely unused. The scan
// length is accumulated into *scanned for observability.
func refFindExclusive(sched *schedule.Schedule, l flow.Link, lo, hi int, scanned *int64) (int, int, bool) {
	if lo < 0 {
		lo = 0
	}
	if hi >= sched.NumSlots() {
		hi = sched.NumSlots() - 1
	}
	for s := lo; s <= hi; s++ {
		*scanned++
		if sched.NodeBusy(l.From, s) || sched.NodeBusy(l.To, s) {
			continue
		}
		for c := 0; c < sched.NumOffsets(); c++ {
			if len(sched.Cell(s, c, nil)) == 0 {
				return s, c, true
			}
		}
	}
	return 0, 0, false
}

func refCompact(sched *schedule.Schedule, flows []*flow.Flow, hop *graph.HopMatrix, rhoT int) (int, error) {
	if sched == nil {
		return 0, fmt.Errorf("compact: nil schedule")
	}
	byID := make(map[int]*flow.Flow, len(flows))
	for _, f := range flows {
		byID[f.ID] = f
	}
	// Global earliest-first pass: process transmissions in slot order so a
	// moved predecessor frees room for its successors.
	txs := append([]schedule.Tx(nil), sched.Txs()...)
	sort.Slice(txs, func(i, j int) bool {
		if txs[i].Slot != txs[j].Slot {
			return txs[i].Slot < txs[j].Slot
		}
		if txs[i].FlowID != txs[j].FlowID {
			return txs[i].FlowID < txs[j].FlowID
		}
		if txs[i].Hop != txs[j].Hop {
			return txs[i].Hop < txs[j].Hop
		}
		return txs[i].Attempt < txs[j].Attempt
	})
	moved := 0
	for _, tx := range txs {
		f := byID[tx.FlowID]
		if f == nil {
			return moved, fmt.Errorf("compact: schedule references unknown flow %d", tx.FlowID)
		}
		// Earliest legal slot: after the preceding transmission of this
		// instance (tracked live from the schedule) and at/after release.
		lo := f.Release(tx.Instance)
		for _, other := range sched.Txs() {
			if other.FlowID != tx.FlowID || other.Instance != tx.Instance || other == tx {
				continue
			}
			before := other.Hop < tx.Hop ||
				(other.Hop == tx.Hop && other.Attempt < tx.Attempt)
			if before && other.Slot+1 > lo {
				lo = other.Slot + 1
			}
		}
		if lo >= tx.Slot {
			continue
		}
		if err := sched.Remove(tx); err != nil {
			return moved, fmt.Errorf("compact: %w", err)
		}
		slot, offset, ok := refFindCompatible(sched, tx.Link, lo, tx.Slot-1, hop, rhoT)
		place := tx
		if ok {
			place.Slot, place.Offset = slot, offset
			moved++
		}
		if err := sched.Place(place); err != nil {
			return moved, fmt.Errorf("compact: %w", err)
		}
	}
	return moved, nil
}

// refFindCompatible scans [lo, hi] for the earliest slot where the link's
// endpoints are idle and some offset is either empty or reuse-compatible at
// rhoT.
func refFindCompatible(sched *schedule.Schedule, l flow.Link, lo, hi int, hop *graph.HopMatrix, rhoT int) (int, int, bool) {
	if lo < 0 {
		lo = 0
	}
	for s := lo; s <= hi; s++ {
		if sched.NodeBusy(l.From, s) || sched.NodeBusy(l.To, s) {
			continue
		}
		for c := 0; c < sched.NumOffsets(); c++ {
			cell := sched.Cell(s, c, nil)
			if len(cell) == 0 {
				return s, c, true
			}
			if hop == nil || rhoT < 1 {
				continue
			}
			compatible := true
			for _, p := range cell {
				other := &sched.Txs()[p]
				if int(hop.Dist(l.From, other.Link.To)) < rhoT ||
					int(hop.Dist(other.Link.From, l.To)) < rhoT {
					compatible = false
					break
				}
			}
			if compatible {
				return s, c, true
			}
		}
	}
	return 0, 0, false
}

// TestRepairCompactMatchReference runs Reschedule and then Compact, and the
// reference copies of both, on clones of random NR, RA and RC schedules of
// the WUSTL testbed — unbudgeted and budgeted flows, staggered phases, a
// few retired flows so compaction has cells to fill, and a random subset of
// route links degraded — and requires identical transmission lists (in
// placement order), Moved, Failed, and compaction move counts.
func TestRepairCompactMatchReference(t *testing.T) {
	tb, err := topology.WUSTL(1)
	if err != nil {
		t.Fatal(err)
	}
	type net struct {
		gc  *graph.Graph
		hop *graph.HopMatrix
	}
	nets := map[int]net{}
	for nch := 2; nch <= 4; nch++ {
		chs := topology.Channels(nch)
		gc, err := tb.CommGraph(chs, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := tb.ReuseGraph(chs)
		if err != nil {
			t.Fatal(err)
		}
		nets[nch] = net{gc, gr.AllPairsHop()}
	}
	const want = 300
	rng := rand.New(rand.NewSource(1))
	algs := []scheduler.Algorithm{scheduler.NR, scheduler.RA, scheduler.RC}
	perAlg := map[scheduler.Algorithm]int{}
	var moved, failed, compacted, crowded, budgeted int
	for cases := 0; cases < want; {
		alg := algs[rng.Intn(len(algs))]
		nch := 2 + rng.Intn(3)
		n := nets[nch]
		flows, err := flow.Generate(rng, n.gc, flow.GenConfig{
			NumFlows: 5 + rng.Intn(30), MinPeriodExp: 0, MaxPeriodExp: rng.Intn(2),
			StaggerPhases: rng.Intn(2) == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := routing.Assign(flows, n.gc, routing.Config{Traffic: routing.PeerToPeer}); err != nil {
			t.Fatal(err)
		}
		withBudgets := rng.Intn(2) == 0
		if withBudgets {
			for _, f := range flows {
				if rng.Intn(2) == 0 {
					f.TxBudget = make([]int, len(f.Route))
					for h := range f.TxBudget {
						f.TxBudget[h] = 1 + rng.Intn(3)
					}
				}
			}
		}
		res, err := scheduler.Run(flows, scheduler.Config{
			Algorithm: alg, NumChannels: nch, RhoT: 2, HopGR: n.hop, Retransmit: rng.Intn(2) == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Schedulable {
			continue
		}
		base := res.Schedule
		for k := rng.Intn(3); k > 0 && len(flows) > 1; k-- {
			op := scheduler.BatchOp{Kind: scheduler.BatchRemove, FlowID: flows[rng.Intn(len(flows))].ID}
			d, err := scheduler.ApplyDeltaBatch(base, flows, []scheduler.BatchOp{op}, scheduler.Config{})
			if err != nil {
				t.Fatal(err)
			}
			flows = d.Flows
		}
		var degraded []flow.Link
		p := rng.Float64()
		for _, f := range flows {
			for _, l := range f.Route {
				if rng.Float64() < p && !slices.Contains(degraded, l) {
					degraded = append(degraded, l)
				}
			}
		}
		crowded += cellsWithVictims(base, degraded)
		ref, cur := base.Clone(), base.Clone()
		wantRes, wantErr := refReschedule(ref, flows, degraded)
		gotRes, gotErr := Reschedule(cur, flows, degraded)
		if wantErr != nil || gotErr != nil {
			t.Fatalf("case %d: repair errors: reference %v, op %v", cases, wantErr, gotErr)
		}
		if wantRes.Moved != gotRes.Moved || !slices.Equal(wantRes.Failed, gotRes.Failed) {
			t.Fatalf("case %d (%v): repair moved %d failed %v, reference moved %d failed %v",
				cases, alg, gotRes.Moved, gotRes.Failed, wantRes.Moved, wantRes.Failed)
		}
		if !slices.Equal(ref.Txs(), cur.Txs()) {
			t.Fatalf("case %d (%v): repaired transmission lists differ", cases, alg)
		}
		wantN, wantErr := refCompact(ref, flows, nil, 0)
		gotN, gotErr := Compact(cur, flows)
		if wantErr != nil || gotErr != nil {
			t.Fatalf("case %d: compact errors: reference %v, op %v", cases, wantErr, gotErr)
		}
		if wantN != gotN {
			t.Fatalf("case %d (%v): compaction moved %d, reference %d", cases, alg, gotN, wantN)
		}
		if !slices.Equal(ref.Txs(), cur.Txs()) {
			t.Fatalf("case %d (%v): compacted transmission lists differ", cases, alg)
		}
		perAlg[alg]++
		moved += gotRes.Moved
		failed += len(gotRes.Failed)
		compacted += gotN
		if withBudgets {
			budgeted++
		}
		cases++
	}
	t.Logf("cases per algorithm %v, %d budgeted; moved %d, unmovable %d, cells with several victims %d, compaction moves %d",
		perAlg, budgeted, moved, failed, crowded, compacted)
	for _, alg := range algs {
		if perAlg[alg] == 0 {
			t.Errorf("no %v case ran", alg)
		}
	}
	if moved == 0 || failed == 0 || crowded == 0 || compacted == 0 || budgeted == 0 {
		t.Error("the random cases missed a behaviour the comparison must cover")
	}
}

// cellsWithVictims counts the cells holding at least two transmissions of
// degraded links.
func cellsWithVictims(s *schedule.Schedule, degraded []flow.Link) int {
	n := 0
	for slot := 0; slot < s.NumSlots(); slot++ {
		for off := 0; off < s.NumOffsets(); off++ {
			victims := 0
			for _, p := range s.Cell(slot, off, nil) {
				if slices.Contains(degraded, s.Txs()[p].Link) {
					victims++
				}
			}
			if victims > 1 {
				n++
			}
		}
	}
	return n
}
