package scheduler

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"wsan/internal/budget"
	"wsan/internal/flow"
	"wsan/internal/graph"
	"wsan/internal/routing"
	"wsan/internal/schedule"
	"wsan/internal/topology"
)

// The tests in this file drive admission with an empty workload, the path
// behind wsan's Network.AddFlow: no scheduled flow may move, so the new
// flow is placed against the pinned grid or not at all.

func baseSchedule(t *testing.T) (*Result, []*flow.Flow, Config) {
	t.Helper()
	_, hop := threeIslands()
	flows := []*flow.Flow{
		{ID: 0, Src: 0, Dst: 2, Period: 50, Deadline: 50},
		{ID: 1, Src: 3, Dst: 5, Period: 100, Deadline: 100},
	}
	routeThrough(flows[0], 0, 1, 2)
	routeThrough(flows[1], 3, 4, 5)
	cfg := Config{Algorithm: RC, NumChannels: 2, RhoT: 2, HopGR: hop, Retransmit: true}
	res, err := Run(flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Fatal("base workload must be schedulable")
	}
	return res, flows, cfg
}

// encoded is a schedule's JSON encoding, transmissions in placement order.
func encoded(t *testing.T, s *schedule.Schedule) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAddFlowSuccess(t *testing.T) {
	res, flows, cfg := baseSchedule(t)
	before := res.Schedule.Len()
	beforeTxs := append([]schedule.Tx(nil), res.Schedule.Txs()...)
	newFlow := &flow.Flow{ID: 2, Src: 6, Dst: 8, Period: 100, Deadline: 100}
	routeThrough(newFlow, 6, 7, 8)
	add, err := AddFlowDelta(res.Schedule, nil, newFlow, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !add.Schedulable {
		t.Fatal("add should succeed")
	}
	// Existing transmissions are untouched, in place and order.
	for i, tx := range beforeTxs {
		if res.Schedule.Txs()[i] != tx {
			t.Fatalf("existing tx %d changed: %+v vs %+v", i, res.Schedule.Txs()[i], tx)
		}
	}
	// New flow fully scheduled: 2 hops × 2 attempts × 1 instance.
	if got := res.Schedule.Len() - before; got != 4 {
		t.Errorf("added %d transmissions, want 4", got)
	}
	checkTiming(t, append(flows, newFlow), &Result{Schedule: res.Schedule, Schedulable: true}, 2)
	if err := res.Schedule.Validate(cfg.HopGR, cfg.RhoT); err != nil {
		t.Errorf("schedule invalid after add: %v", err)
	}
}

func TestAddFlowRollbackOnMiss(t *testing.T) {
	res, _, cfg := baseSchedule(t)
	before := res.Schedule.Len()
	// Impossible deadline: 2 hops × 2 attempts = 4 slots needed, deadline 2.
	newFlow := &flow.Flow{ID: 2, Src: 6, Dst: 8, Period: 50, Deadline: 2}
	routeThrough(newFlow, 6, 7, 8)
	add, err := AddFlowDelta(res.Schedule, nil, newFlow, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if add.Schedulable {
		t.Fatal("add should miss its deadline")
	}
	if res.Schedule.Len() != before {
		t.Errorf("rollback incomplete: %d transmissions, want %d", res.Schedule.Len(), before)
	}
	for _, tx := range res.Schedule.Txs() {
		if tx.FlowID == 2 {
			t.Errorf("rolled-back flow still present: %+v", tx)
		}
	}
}

func TestAddFlowValidation(t *testing.T) {
	res, _, cfg := baseSchedule(t)
	good := &flow.Flow{ID: 2, Src: 6, Dst: 8, Period: 50, Deadline: 50}
	routeThrough(good, 6, 7, 8)

	if _, err := AddFlowDelta(nil, nil, good, cfg); err == nil {
		t.Error("nil schedule should fail")
	}
	badPeriod := *good
	badPeriod.Period, badPeriod.Deadline = 30, 30 // does not divide 100
	if _, err := AddFlowDelta(res.Schedule, nil, &badPeriod, cfg); err == nil {
		t.Error("non-harmonic period should fail")
	}
	dup := *good
	dup.ID = 0 // collides with an existing flow
	if _, err := AddFlowDelta(res.Schedule, nil, &dup, cfg); err == nil {
		t.Error("duplicate flow ID should fail")
	}
	higher := *good
	higher.ID = 1 // not lower priority than flow 1... equal: collides
	if _, err := AddFlowDelta(res.Schedule, nil, &higher, cfg); err == nil {
		t.Error("non-lowest priority should fail")
	}
	noRoute := &flow.Flow{ID: 2, Src: 6, Dst: 8, Period: 50, Deadline: 50}
	if _, err := AddFlowDelta(res.Schedule, nil, noRoute, cfg); err == nil {
		t.Error("unrouted flow should fail")
	}
	badCh := cfg
	badCh.NumChannels = 7
	if _, err := AddFlowDelta(res.Schedule, nil, good, badCh); err == nil {
		t.Error("channel mismatch should fail")
	}
	outOfSpace := &flow.Flow{ID: 2, Src: 6, Dst: 99, Period: 50, Deadline: 50,
		Route: []flow.Link{{From: 6, To: 99}}}
	if _, err := AddFlowDelta(res.Schedule, nil, outOfSpace, cfg); err == nil {
		t.Error("route outside node space should fail")
	}
}

func TestAddFlowPhased(t *testing.T) {
	res, _, cfg := baseSchedule(t)
	phased := &flow.Flow{ID: 2, Src: 6, Dst: 8, Period: 100, Deadline: 40, Phase: 30}
	routeThrough(phased, 6, 7, 8)
	add, err := AddFlowDelta(res.Schedule, nil, phased, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !add.Schedulable {
		t.Fatal("phased add should succeed")
	}
	for _, tx := range res.Schedule.Txs() {
		if tx.FlowID == 2 && (tx.Slot < 30 || tx.Slot > 69) {
			t.Errorf("phased tx at slot %d outside [30, 69]", tx.Slot)
		}
	}
}

// TestFullRungKeepsUnlistedFlows pins the ladder rule: no rung moves a flow
// the caller's workload does not list. Flow 5 holds node 0 in every slot of
// a 4-slot, 1-channel grid, so flow 1 (link 0→2) cannot be placed directly.
// A full reschedule of the listed workload — flow 1 alone — would admit it
// by deleting flow 5, so the op must instead be infeasible and leave the
// grid byte for byte as it was.
func TestFullRungKeepsUnlistedFlows(t *testing.T) {
	cfg := Config{Algorithm: NR, NumChannels: 1}
	holder := &flow.Flow{ID: 5, Src: 0, Dst: 1, Period: 1, Deadline: 1}
	routeThrough(holder, 0, 1)
	sched, err := schedule.New(4, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := AddFlowDelta(sched, nil, holder, cfg); err != nil || !res.Schedulable {
		t.Fatalf("placing the holder: %v", err)
	}
	before, holderOnly := encoded(t, sched), sched.Clone()

	f := &flow.Flow{ID: 1, Src: 0, Dst: 2, Period: 4, Deadline: 4}
	routeThrough(f, 0, 2)
	res, err := AddFlowDelta(sched, nil, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedulable || res.FailedFlow != f.ID || res.Changes != nil {
		t.Fatalf("got Schedulable=%v FailedFlow=%d Changes=%v Fallback=%v, want an infeasible op",
			res.Schedulable, res.FailedFlow, res.Changes, res.Fallback)
	}
	if res.Fallback == FallbackFull {
		t.Error("Fallback reports the refused full rung")
	}
	if !bytes.Equal(encoded(t, sched), before) {
		t.Fatal("refused op changed the grid")
	}

	// Listed, flow 5 may move: the full rung runs, and it fails on its
	// merits (flow 5 needs node 0 in every slot).
	res, err = AddFlowDelta(sched, []*flow.Flow{holder}, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedulable || res.Fallback != FallbackFull {
		t.Fatalf("listed: Schedulable=%v Fallback=%v, want an infeasible full rung",
			res.Schedulable, res.Fallback)
	}
	// The cascade evicted and restored flow 5, so only the order of the
	// transmission list may differ.
	if !bytes.Equal(canonicalBytes(t, sched), canonicalBytes(t, holderOnly)) {
		t.Fatal("infeasible full rung changed the grid")
	}
}

// planPoint generates one flow set of the paper's Fig. 6 operating point on
// gc: n peer-to-peer flows with periods 2^0–2^maxPeriodExp s (the paper
// uses 2), budgeted to a 0.99 delivery target when budgeted.
func planPoint(t testing.TB, tb *topology.Testbed, chs []int, gc *graph.Graph, aps []int,
	seed int64, n, maxPeriodExp int, budgeted bool) []*flow.Flow {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fs, err := flow.Generate(rng, gc, flow.GenConfig{
		NumFlows: n, MinPeriodExp: 0, MaxPeriodExp: maxPeriodExp, Exclude: aps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := routing.Assign(fs, gc, routing.Config{Traffic: routing.PeerToPeer, APs: aps}); err != nil {
		t.Fatal(err)
	}
	if budgeted {
		linkPRR := func(l flow.Link) float64 {
			sum := 0.0
			for _, ch := range chs {
				sum += tb.PRR(l.From, l.To, ch)
			}
			return sum / float64(len(chs))
		}
		for _, f := range fs {
			f.TargetPDR = 0.99
		}
		if _, err := budget.Apply(fs, linkPRR, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// admissionCase checks the metamorphic admission property on one flow set:
// Run(fs[:n-1]) followed by admitting fs[n-1] equals Run(fs) transmission
// for transmission, through both admission paths — the full workload, which
// must place at FallbackNone, and the empty workload. A set whose full run
// misses is cut after the missing flow; both paths must then miss and leave
// the grid byte-identical. It reports whether the case applied (equal
// hyperperiods) and whether it was a miss.
func admissionCase(t *testing.T, name string, fs []*flow.Flow, cfg Config) (applied, miss bool) {
	t.Helper()
	full, err := Run(fs, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !full.Schedulable {
		// Run stops at the miss, so its grid is also the run of the set cut
		// after the missing flow whenever the hyperperiod is the same.
		fs = fs[:slices.IndexFunc(fs, func(f *flow.Flow) bool { return f.ID == full.FailedFlow })+1]
	}
	n := len(fs)
	prefix, err := Run(fs[:n-1], cfg)
	if err != nil {
		t.Fatalf("%s: prefix: %v", name, err)
	}
	if prefix.Schedule.NumSlots() != full.Schedule.NumSlots() {
		return false, false
	}
	if !prefix.Schedulable {
		t.Fatalf("%s: prefix misses at flow %d before the full run's miss", name, prefix.FailedFlow)
	}
	last := fs[n-1]
	for _, work := range [][]*flow.Flow{fs[:n-1], nil} {
		sched := prefix.Schedule.Clone()
		before := encoded(t, sched)
		res, err := AddFlowDelta(sched, work, last, cfg)
		if err != nil {
			t.Fatalf("%s (workload of %d): %v", name, len(work), err)
		}
		if !full.Schedulable {
			if full.FailedFlow != last.ID || res.Schedulable || res.FailedFlow != last.ID {
				t.Fatalf("%s (workload of %d): full run misses at %d, admission Schedulable=%v FailedFlow=%d",
					name, len(work), full.FailedFlow, res.Schedulable, res.FailedFlow)
			}
			if !bytes.Equal(encoded(t, sched), before) {
				t.Fatalf("%s (workload of %d): missed admission changed the grid", name, len(work))
			}
			continue
		}
		if !res.Schedulable || res.Fallback != FallbackNone {
			t.Fatalf("%s (workload of %d): Schedulable=%v Fallback=%v, want a direct placement",
				name, len(work), res.Schedulable, res.Fallback)
		}
		if a, b := full.Schedule.Txs(), sched.Txs(); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s (workload of %d): admission differs from the full run (%d vs %d transmissions)",
				name, len(work), len(b), len(a))
		}
	}
	return true, !full.Schedulable
}

// TestAddFlowMatchesFullReschedule is the metamorphic admission property:
// RC (Algorithm 1), like NR and RA, places flows one at a time in priority
// order, so admitting a new lowest-priority flow into a live schedule is one
// more pass of that loop and must reproduce the full run exactly. It runs on
// three disjoint two-hop islands, at the paper's Fig. 6 operating point
// (Indriya, 5 channels, 60 + seed mod 61 flows, even seeds budgeted at
// 0.99, seeds 1–150) and, where NR's admissions miss, at 4 channels with
// 100 + seed mod 21 flows (seeds 1–60). -short runs a tenth of each.
func TestAddFlowMatchesFullReschedule(t *testing.T) {
	_, islandHop := threeIslands()
	mk := func(id, base int, period int) *flow.Flow {
		f := &flow.Flow{ID: id, Src: base, Dst: base + 2, Period: period, Deadline: period}
		routeThrough(f, base, base+1, base+2)
		return f
	}
	islands := []*flow.Flow{mk(0, 0, 50), mk(1, 3, 100), mk(2, 6, 100)}
	if ok, _ := admissionCase(t, "islands", islands,
		Config{Algorithm: RC, NumChannels: 2, RhoT: 2, HopGR: islandHop, Retransmit: true}); !ok {
		t.Fatal("islands case did not apply")
	}

	tb, err := topology.Indriya(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, point := range []struct {
		nch, base, spread int
		seeds             int64
		wantMiss          bool
	}{
		{nch: 5, base: 60, spread: 61, seeds: 150},
		{nch: 4, base: 100, spread: 21, seeds: 60, wantMiss: true},
	} {
		chs := topology.Channels(point.nch)
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
		seeds := point.seeds
		if testing.Short() {
			seeds /= 10
		}
		applied, misses := 0, 0
		for seed := int64(1); seed <= seeds; seed++ {
			n := point.base + int(seed)%point.spread
			fs := planPoint(t, tb, chs, gc, aps, seed, n, 2, seed%2 == 0)
			for _, alg := range []Algorithm{NR, RA, RC} {
				cfg := Config{Algorithm: alg, NumChannels: point.nch, RhoT: 2, HopGR: hop, Retransmit: true}
				name := fmt.Sprintf("%v %dch seed %d", alg, point.nch, seed)
				ok, miss := admissionCase(t, name, fs, cfg)
				if ok {
					applied++
				}
				if miss {
					misses++
				}
			}
		}
		t.Logf("%d channels: %d of %d cases applied, %d admissions missed", point.nch, applied, 3*seeds, misses)
		if applied == 0 || point.wantMiss && misses == 0 {
			t.Fatalf("%d channels: %d cases applied, %d missed: the property went unexercised",
				point.nch, applied, misses)
		}
	}
}
