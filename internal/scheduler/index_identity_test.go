package scheduler

import (
	"fmt"
	"math/rand"
	"testing"

	"wsan/internal/flow"
	"wsan/internal/graph"
	"wsan/internal/routing"
	"wsan/internal/schedule"
	"wsan/internal/topology"
)

// TestScanVsIndexIdentical proves the indexing change is purely an
// optimization: on real testbeds across fixed workload seeds, all three
// algorithms must produce byte-identical transmission sequences whether the
// hot paths run through the bitset/prefix-sum indexes or through the
// pre-index reference scans (cfg.scanPaths). RC's reuse table is laid out
// one stride of NumChannels cells per full slot, so the identity runs at
// several widths: at one channel every occupied slot is full.
func TestScanVsIndexIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(int64) (*topology.Testbed, error)
	}{
		{"indriya", topology.Indriya},
		{"wustl", topology.WUSTL},
	} {
		tb, err := tc.mk(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, nch := range []int{5, 1, 2, 8, 16} {
			chs := topology.Channels(nch)
			gc, err := tb.CommGraph(chs, 0.9)
			if err != nil {
				t.Fatal(err)
			}
			gr, err := tb.ReuseGraph(chs)
			if err != nil {
				t.Fatal(err)
			}
			hop := gr.AllPairsHop()
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				fs, err := flow.Generate(rng, gc, flow.GenConfig{
					NumFlows: 60, MinPeriodExp: 0, MaxPeriodExp: 2,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := routing.Assign(fs, gc, routing.Config{Traffic: routing.PeerToPeer}); err != nil {
					t.Fatal(err)
				}
				for _, alg := range []Algorithm{NR, RA, RC} {
					cfg := Config{Algorithm: alg, NumChannels: nch, RhoT: 2,
						HopGR: hop, Retransmit: true}
					sameAsScan(t, fmt.Sprintf("%s nch=%d seed=%d %v", tc.name, nch, seed, alg), fs, cfg)
				}
			}
		}
	}
}

// sameAsScan runs fs under cfg on the index path and on the reference scans
// (each on its own clone of the flows) and fails unless both agree on
// schedulability and produce the same transmission sequence.
func sameAsScan(t *testing.T, label string, fs []*flow.Flow, cfg Config) {
	t.Helper()
	cfg.scanPaths = false
	indexed, err := Run(cloneFlows(fs), cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	cfg.scanPaths = true
	scanned, err := Run(cloneFlows(fs), cfg)
	if err != nil {
		t.Fatalf("%s: scan: %v", label, err)
	}
	if indexed.Schedulable != scanned.Schedulable {
		t.Fatalf("%s: schedulable differs: index=%v scan=%v",
			label, indexed.Schedulable, scanned.Schedulable)
	}
	it, st := indexed.Schedule.Txs(), scanned.Schedule.Txs()
	if len(it) != len(st) {
		t.Fatalf("%s: %d vs %d transmissions", label, len(it), len(st))
	}
	for i := range it {
		if it[i] != st[i] {
			t.Fatalf("%s: tx %d differs: index=%+v scan=%+v", label, i, it[i], st[i])
		}
	}
}

// TestPlaceRCFallbackPrefersPermissive pins the fallback rule of Algorithm 1
// when laxity never reaches zero: keep the earliest feasible slot, and among
// placements tied on that slot the most permissive (highest-ρ) one. The old
// code kept whatever findSlot returned last — the lowest-ρ, most aggressive
// placement — even when the extra ρ steps bought no earlier slot.
//
// Constructed scenario on a 10-node line (G_R distances = index gaps),
// placing link 0→1 with λ_R pinned to 3 and ρ_t = 2, two offsets:
//
//	slot 0, offset 0: {8→9, 6→7}  load 2, compatible at ρ=3 and ρ=2
//	slot 0, offset 1: {3→4}       load 1, compatible only at ρ=2
//	                              (Dist(3,1) = 2 < 3)
//	slot 1+:          empty
//
// The ρ search sees: ρ=∞ → slot 1 (slot 0 full); ρ=3 → (0,0) (offset 1
// incompatible); ρ=2 → (0,1) (least-loaded of the two). With the deadline
// budget forced negative, the fixed fallback keeps (0,0) — slot 0 beats
// slot 1, and on the slot-0 tie the ρ=3 placement stands. The old rule
// returned (0,1). The scenario also runs on a 70000-node grid, which has
// no packed link column, so the reuse distances come from the cells.
func TestPlaceRCFallbackPrefersPermissive(t *testing.T) {
	g := graph.New(10)
	for i := 0; i < 9; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	hop := g.AllPairsHop()
	for _, tc := range []struct {
		scan  bool
		nodes int
	}{{false, 10}, {true, 10}, {false, 70000}} {
		scan := tc.scan
		sched, err := schedule.New(8, 2, tc.nodes)
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
		eng := newEngine(Config{Algorithm: RC, NumChannels: 2, RhoT: 2,
			HopGR: hop, scanPaths: scan}, sched, 3)
		f := &flow.Flow{ID: 0, Src: 0, Dst: 1, Period: 8, Deadline: 7,
			Route: []flow.Link{{From: 0, To: 1}}}
		eng.setFlow(f)
		tx := schedule.Tx{FlowID: 0, Link: flow.Link{From: 0, To: 1}}

		// Sanity: the ρ steps see the placements the scenario intends.
		if s, c, ok := eng.findSlot(&tx, 0, 6, rhoInf); !ok || s != 1 {
			t.Fatalf("scan=%v: ρ=∞ placement = (%d,%d,%v), want slot 1", scan, s, c, ok)
		}
		if s, c, ok := eng.findSlot(&tx, 0, 6, 3); !ok || s != 0 || c != 0 {
			t.Fatalf("scan=%v: ρ=3 placement = (%d,%d,%v), want (0,0)", scan, s, c, ok)
		}
		if s, c, ok := eng.findSlot(&tx, 0, 6, 2); !ok || s != 0 || c != 1 {
			t.Fatalf("scan=%v: ρ=2 placement = (%d,%d,%v), want (0,1)", scan, s, c, ok)
		}

		// remaining=10 forces laxity = 6 − s − 10 < 0 at every candidate,
		// so placeRC runs the ρ search to exhaustion and must fall back.
		slot, offset, ok := eng.placeOne(f, &tx, 0, 6, 10)
		if !ok {
			t.Fatalf("scan=%v: placement failed", scan)
		}
		if slot != 0 || offset != 0 {
			t.Errorf("scan=%v: fallback = (%d,%d), want the highest-ρ slot-0 placement (0,0)",
				scan, slot, offset)
		}
		if eng.mets.laxityFallbacks != 1 {
			t.Errorf("scan=%v: laxityFallbacks = %d, want 1", scan, eng.mets.laxityFallbacks)
		}
	}
}

// TestPlanPointScanVsIndex runs the index-versus-scan identity at the
// paper's Fig. 6 operating point: Indriya on 5 channels, 60 + seed mod 61
// peer-to-peer flows per set, every even seed's set budgeted to a 0.99
// delivery target (which multiplies the attempts per hop), RC with and
// without the FixedRho ablation. It pins the candidate-cache warm start:
// adopting a cache across flows (a flow whose first hop is the previous
// flow's last link, same deadline) once proposed the slot just placed,
// which Place rejected, and seeds 235 and 238 came out unschedulable on the
// index path only. -short runs seeds 221–260. The same point then runs at
// 1, 2, 8 and 16 channels over a shorter seed range (-short: 8 seeds each),
// since RC's reuse table strides by the channel count; at one channel every
// occupied slot is full, so the reuse fill and the fallback scan run hot.
func TestPlanPointScanVsIndex(t *testing.T) {
	tb, err := topology.Indriya(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		nch         int
		first, last int64
	}{{5, 1, 400}, {1, 1, 80}, {2, 1, 80}, {8, 1, 80}, {16, 1, 80}} {
		if testing.Short() {
			if w.nch == 5 {
				w.first, w.last = 221, 260
			} else {
				w.first, w.last = 231, 238
			}
		}
		chs := topology.Channels(w.nch)
		gc, err := tb.CommGraph(chs, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := tb.ReuseGraph(chs)
		if err != nil {
			t.Fatal(err)
		}
		hop := gr.AllPairsHop()
		aps := topology.AccessPoints(gc, 2)
		for seed := w.first; seed <= w.last; seed++ {
			n := 60 + int(seed%61)
			budgeted := seed%2 == 0
			fs := planPoint(t, tb, chs, gc, aps, seed, n, budgeted)
			for _, fixed := range []bool{false, true} {
				cfg := Config{Algorithm: RC, NumChannels: w.nch, RhoT: 2, HopGR: hop,
					Retransmit: true, FixedRho: fixed}
				sameAsScan(t, fmt.Sprintf("nch=%d seed=%d n=%d budgeted=%v fixed=%v",
					w.nch, seed, n, budgeted, fixed), fs, cfg)
			}
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
