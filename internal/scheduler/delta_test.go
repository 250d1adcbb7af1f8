package scheduler

import (
	"bytes"
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"wsan/internal/flow"
	"wsan/internal/graph"
	"wsan/internal/obs"
	"wsan/internal/routing"
	"wsan/internal/schedule"
	"wsan/internal/topology"
)

// ringGraph returns a cycle of n nodes — every node pair has two disjoint
// paths, so reroutes have somewhere to go.
func ringGraph(n int) (*graph.Graph, *graph.HopMatrix) {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		if err := g.AddEdge(i, (i+1)%n); err != nil {
			panic(err)
		}
	}
	return g, g.AllPairsHop()
}

// deltaBase schedules the given flows from scratch and fails the test on an
// infeasible base workload.
func deltaBase(t *testing.T, flows []*flow.Flow, cfg Config) *schedule.Schedule {
	t.Helper()
	res, err := Run(flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Fatalf("base workload unschedulable (flow %d)", res.FailedFlow)
	}
	return res.Schedule
}

// checkDelta verifies one successful delta operation end to end: the live
// schedule obeys every conflict and reuse-distance constraint, every flow's
// timing invariants hold, and Changes is exactly the diff between the
// before and after states.
func checkDelta(t *testing.T, before, after *schedule.Schedule, res *DeltaResult,
	flows []*flow.Flow, cfg Config) {
	t.Helper()
	if !res.Schedulable {
		t.Fatalf("delta op infeasible (flow %d, fallback %v)", res.FailedFlow, res.Fallback)
	}
	rhoT := cfg.RhoT
	if cfg.Algorithm == NR {
		rhoT = 0
	}
	if err := after.Validate(cfg.HopGR, rhoT); err != nil {
		t.Fatalf("schedule invalid after delta op: %v", err)
	}
	checkTiming(t, flows, &Result{Schedule: after, Schedulable: true}, cfg.attempts())
	want, err := schedule.Diff(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		want = nil
	}
	if !reflect.DeepEqual(res.Changes, want) {
		t.Fatalf("Changes disagree with Diff:\n got %v\nwant %v", res.Changes, want)
	}
}

// txSet is a schedule's transmissions as a comparable set.
func txSet(s *schedule.Schedule) map[schedule.Tx]bool {
	out := make(map[schedule.Tx]bool, s.Len())
	for _, tx := range s.Txs() {
		out[tx] = true
	}
	return out
}

func TestAddFlowDeltaDirect(t *testing.T) {
	_, hop := threeIslands()
	f0 := &flow.Flow{ID: 0, Src: 0, Dst: 2, Period: 50, Deadline: 50}
	routeThrough(f0, 0, 1, 2)
	f1 := &flow.Flow{ID: 1, Src: 3, Dst: 5, Period: 100, Deadline: 100}
	routeThrough(f1, 3, 4, 5)
	flows := []*flow.Flow{f0, f1}
	cfg := Config{Algorithm: RC, NumChannels: 2, RhoT: 2, HopGR: hop, Retransmit: true}
	sched := deltaBase(t, flows, cfg)
	before := sched.Clone()

	add := &flow.Flow{ID: 2, Src: 6, Dst: 8, Period: 100, Deadline: 100}
	routeThrough(add, 6, 7, 8)
	res, err := AddFlowDelta(sched, flows, add, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback != FallbackNone {
		t.Fatalf("fallback = %v, want none", res.Fallback)
	}
	mutated := append(append([]*flow.Flow(nil), flows...), add)
	checkDelta(t, before, sched, res, mutated, cfg)
	for _, c := range res.Changes {
		if c.Kind != schedule.Added || c.Tx.FlowID != add.ID {
			t.Fatalf("direct add produced unexpected change %+v", c)
		}
	}
	// Disruption: a direct add places only the new flow's transmissions.
	want := (sched.NumSlots() / add.Period) * len(add.Route) * cfg.attempts()
	if res.PlacementOps != want || res.RemovalOps != 0 {
		t.Fatalf("ops = %d placements / %d removals, want %d / 0",
			res.PlacementOps, res.RemovalOps, want)
	}
}

func TestRemoveFlowDeltaAndInvert(t *testing.T) {
	_, hop := threeIslands()
	f0 := &flow.Flow{ID: 0, Src: 0, Dst: 2, Period: 50, Deadline: 50}
	routeThrough(f0, 0, 1, 2)
	f1 := &flow.Flow{ID: 1, Src: 3, Dst: 5, Period: 100, Deadline: 100}
	routeThrough(f1, 3, 4, 5)
	cfg := Config{Algorithm: RC, NumChannels: 2, RhoT: 2, HopGR: hop, Retransmit: true}
	sched := deltaBase(t, []*flow.Flow{f0, f1}, cfg)
	before := sched.Clone()

	res, err := RemoveFlowDelta(sched, f0.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable || res.Fallback != FallbackNone {
		t.Fatalf("remove failed: %+v", res)
	}
	for _, tx := range sched.Txs() {
		if tx.FlowID == f0.ID {
			t.Fatalf("flow %d transmission %+v survived removal", f0.ID, tx)
		}
	}
	for _, c := range res.Changes {
		if c.Kind != schedule.Removed || c.Tx.FlowID != f0.ID {
			t.Fatalf("remove produced unexpected change %+v", c)
		}
	}
	// Rolling back the returned delta restores the schedule exactly.
	if err := schedule.Apply(sched, schedule.Invert(res.Changes)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(txSet(sched), txSet(before)) {
		t.Fatal("Invert did not restore the original schedule")
	}

	if _, err := RemoveFlowDelta(sched, 99, nil); err == nil {
		t.Fatal("removing an unscheduled flow should error")
	}
}

func TestRerouteFlowDeltaDirect(t *testing.T) {
	f0 := &flow.Flow{ID: 0, Src: 0, Dst: 3, Period: 100, Deadline: 100}
	routeThrough(f0, 0, 1, 2, 3)
	f1 := &flow.Flow{ID: 1, Src: 4, Dst: 7, Period: 100, Deadline: 100}
	routeThrough(f1, 4, 5, 6, 7)
	flows := []*flow.Flow{f0, f1}
	cfg := Config{Algorithm: NR, NumChannels: 2, Retransmit: true}
	sched := deltaBase(t, flows, cfg)
	before := sched.Clone()

	// Send flow 0 the long way round the ring.
	newRoute := []flow.Link{{From: 0, To: 7}, {From: 7, To: 6}, {From: 6, To: 5}, {From: 5, To: 4}, {From: 4, To: 3}}
	res, err := RerouteFlowDelta(sched, flows, f0.ID, newRoute, cfg)
	if err != nil {
		t.Fatal(err)
	}
	moved := *f0
	moved.Route = newRoute
	mutated := []*flow.Flow{&moved, f1}
	checkDelta(t, before, sched, res, mutated, cfg)
	if res.Fallback != FallbackNone {
		t.Fatalf("fallback = %v, want none", res.Fallback)
	}
	// The old route's transmissions are gone, the new route's are in.
	for _, tx := range sched.Txs() {
		if tx.FlowID == f0.ID && tx.Link.To == 1 {
			t.Fatalf("old-route transmission %+v survived reroute", tx)
		}
	}
}

// wantCounters checks the registry's counters against want.
func wantCounters(t *testing.T, reg *obs.Registry, want map[string]int64) {
	t.Helper()
	for name, n := range want {
		if got := reg.CounterValue(name); got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
}

// TestAddFlowDeltaEviction pins the evict half of the label rule: the
// cascade rung evicted only for the delta flow itself, so it reports
// FallbackEvict and counts under fallback_evict.
func TestAddFlowDeltaEviction(t *testing.T) {
	_, hop := threeIslands()
	// A lone low-criticality flow hogs island 0's early slots.
	low := &flow.Flow{ID: 10, Src: 0, Dst: 2, Period: 100, Deadline: 100}
	routeThrough(low, 0, 1, 2)
	flows := []*flow.Flow{low}
	reg := obs.NewRegistry()
	cfg := Config{Algorithm: RC, NumChannels: 1, RhoT: 2, HopGR: hop, Metrics: reg}
	sched := deltaBase(t, flows, cfg)
	before := sched.Clone()

	// A tight high-criticality flow on the same island: its two slots are
	// exactly where the low flow sits, so direct placement must fail and the
	// low flow must be evicted and re-placed after it.
	hi := &flow.Flow{ID: 0, Src: 0, Dst: 2, Period: 100, Deadline: 2}
	routeThrough(hi, 0, 1, 2)
	res, err := AddFlowDelta(sched, flows, hi, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback != FallbackEvict {
		t.Fatalf("fallback = %v, want evict", res.Fallback)
	}
	if len(res.Evicted) != 1 || res.Evicted[0] != low.ID {
		t.Fatalf("evicted = %v, want [%d]", res.Evicted, low.ID)
	}
	mutated := []*flow.Flow{hi, low}
	checkDelta(t, before, sched, res, mutated, cfg)
	// The high-criticality flow owns slots 0 and 1 now.
	for _, tx := range sched.Txs() {
		if tx.FlowID == hi.ID && tx.Slot >= hi.Deadline {
			t.Fatalf("high-criticality tx %+v past its deadline window", tx)
		}
	}
	wantCounters(t, reg, map[string]int64{
		"sched.incremental.fallback_evict":   1,
		"sched.incremental.fallback_cascade": 0,
		"sched.incremental.evictions":        1,
	})
}

func TestAddFlowDeltaFullFallback(t *testing.T) {
	// Two single-hop flows on the same link; B lands in slot 1 behind A.
	a := &flow.Flow{ID: 0, Src: 0, Dst: 1, Period: 100, Deadline: 100}
	routeThrough(a, 0, 1)
	b := &flow.Flow{ID: 1, Src: 0, Dst: 1, Period: 100, Deadline: 100}
	routeThrough(b, 0, 1)
	cfg := Config{Algorithm: NR, NumChannels: 1}
	sched := deltaBase(t, []*flow.Flow{a, b}, cfg)

	// Retiring A leaves B parked in slot 1 with slot 0 free.
	if _, err := RemoveFlowDelta(sched, a.ID, nil); err != nil {
		t.Fatal(err)
	}
	flows := []*flow.Flow{b}
	before := sched.Clone()

	// The new flow needs exactly slot 1 — occupied by B, which outranks it,
	// so eviction is off the table. Only a full reschedule (which repacks B
	// into slot 0) can admit it.
	c := &flow.Flow{ID: 2, Src: 0, Dst: 1, Period: 100, Deadline: 1, Phase: 1}
	routeThrough(c, 0, 1)
	res, err := AddFlowDelta(sched, flows, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback != FallbackFull {
		t.Fatalf("fallback = %v, want full", res.Fallback)
	}
	mutated := []*flow.Flow{b, c}
	checkDelta(t, before, sched, res, mutated, cfg)
}

// TestAddFlowDeltaCascade pins the cascade half of the label rule: evicting
// flow B admits the new flow, but B's own re-placement window is blocked by
// flow C — which sits outside the new flow's instance window, so only B's
// re-placement can evict it. That transitive eviction labels the op
// FallbackCascade, and C re-places in the free tail, so no full reschedule
// runs.
func TestAddFlowDeltaCascade(t *testing.T) {
	// One link, one channel, four slots: b holds slot 0 (window [0,2)),
	// c holds slot 1 (window [0,4)).
	b := &flow.Flow{ID: 10, Src: 0, Dst: 1, Period: 4, Deadline: 2}
	routeThrough(b, 0, 1)
	c := &flow.Flow{ID: 20, Src: 0, Dst: 1, Period: 4, Deadline: 4}
	routeThrough(c, 0, 1)
	flows := []*flow.Flow{b, c}
	reg := obs.NewRegistry()
	cfg := Config{Algorithm: NR, NumChannels: 1, Metrics: reg}
	sched := deltaBase(t, flows, cfg)
	before := sched.Clone()

	// The new top-criticality flow needs exactly slot 0; c is outside that
	// window, so it cannot be one of a's own eviction candidates.
	a := &flow.Flow{ID: 0, Src: 0, Dst: 1, Period: 4, Deadline: 1}
	routeThrough(a, 0, 1)
	for _, tx := range before.Txs() {
		if tx.FlowID == c.ID && tx.Slot < a.Deadline {
			t.Fatalf("base put c in a's window (slot %d)", tx.Slot)
		}
	}
	res, err := AddFlowDelta(sched, flows, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback != FallbackCascade {
		t.Fatalf("fallback = %v, want cascade", res.Fallback)
	}
	if want := []int{b.ID, c.ID}; !reflect.DeepEqual(res.Evicted, want) {
		t.Fatalf("evicted = %v, want %v", res.Evicted, want)
	}
	mutated := []*flow.Flow{a, b, c}
	checkDelta(t, before, sched, res, mutated, cfg)
	// The cascade repacked the chain in criticality order: a=0, b=1, c=2.
	wantSlots := map[int]int{a.ID: 0, b.ID: 1, c.ID: 2}
	for _, tx := range sched.Txs() {
		if want, ok := wantSlots[tx.FlowID]; !ok || tx.Slot != want {
			t.Fatalf("flow %d landed in slot %d, want %d", tx.FlowID, tx.Slot, wantSlots[tx.FlowID])
		}
	}
	wantCounters(t, reg, map[string]int64{
		"sched.incremental.fallback_evict":   0,
		"sched.incremental.fallback_cascade": 1,
		"sched.incremental.evictions":        2,
	})
}

// rerouteCascadeBase builds the workload the reroute regression tests share.
// Flow x (top criticality) moves from the one-hop 0→1 onto 0→3→1, whose
// relay 3 is held across x's window [0,4) by b's three-attempt budget, so
// direct placement fails. Evicting b admits x, but b's re-placement window
// [0,5) then lacks a slot: node 4 is held at slot 3 by c, which only b's
// re-placement can evict (x fits before its candidate list reaches c). The
// op therefore lands on the cascade rung with a transitive eviction, and c
// re-places in the free tail.
//
// The old route's transmission sits in slot 0, exactly where the new route
// wants to start: a cascade that ran with the old route restored would
// commit x on both routes at once.
func rerouteCascadeBase(t *testing.T, reg *obs.Registry) (*schedule.Schedule, []*flow.Flow, Config) {
	t.Helper()
	x := &flow.Flow{ID: 0, Src: 0, Dst: 1, Period: 8, Deadline: 4}
	routeThrough(x, 0, 1)
	b := &flow.Flow{ID: 10, Src: 3, Dst: 4, Period: 8, Deadline: 5, TxBudget: []int{3}}
	routeThrough(b, 3, 4)
	c := &flow.Flow{ID: 20, Src: 4, Dst: 5, Period: 8, Deadline: 8}
	routeThrough(c, 4, 5)
	flows := []*flow.Flow{x, b, c}
	cfg := Config{Algorithm: NR, NumChannels: 4, Metrics: reg}
	return deltaBase(t, flows, cfg), flows, cfg
}

// moved returns a copy of f on route, as a successful reroute leaves it.
func moved(f *flow.Flow, route []flow.Link) *flow.Flow {
	m := *f
	m.Route = route
	m.TxBudget = flow.AdaptBudget(f.TxBudget, len(route))
	return &m
}

// TestRerouteFlowDeltaCascade is the stale-cell regression: a reroute that
// reaches the cascade rung must leave the flow with exactly its budgeted
// transmissions, all on the new route (checkDelta's timing check), rather
// than the old and new routes side by side.
func TestRerouteFlowDeltaCascade(t *testing.T) {
	sched, flows, cfg := rerouteCascadeBase(t, nil)
	before := sched.Clone()
	x := flows[0]
	route := []flow.Link{{From: 0, To: 3}, {From: 3, To: 1}}
	res, err := RerouteFlowDelta(sched, flows, x.ID, route, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback != FallbackCascade {
		t.Fatalf("fallback = %v, want cascade", res.Fallback)
	}
	if want := []int{10, 20}; !reflect.DeepEqual(res.Evicted, want) {
		t.Fatalf("evicted = %v, want %v", res.Evicted, want)
	}
	checkDelta(t, before, sched, res, []*flow.Flow{moved(x, route), flows[1], flows[2]}, cfg)
}

// TestApplyDeltaBatchRerouteCascade runs the same reroute as the second op
// of a batch, so the op's journal mark is not the batch start. It also pins
// that the batch result accumulates Evicted and reports it to the metrics.
func TestApplyDeltaBatchRerouteCascade(t *testing.T) {
	reg := obs.NewRegistry()
	sched, flows, cfg := rerouteCascadeBase(t, reg)
	before := sched.Clone()
	x := flows[0]
	z := &flow.Flow{ID: 30, Src: 2, Dst: 5, Period: 8, Deadline: 8}
	routeThrough(z, 2, 5)
	route := []flow.Link{{From: 0, To: 3}, {From: 3, To: 1}}
	res, err := ApplyDeltaBatch(sched, flows, []BatchOp{
		{Kind: BatchAdd, Flow: z},
		{Kind: BatchReroute, FlowID: x.ID, Route: route},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Fallback{FallbackNone, FallbackCascade}; !reflect.DeepEqual(res.Fallbacks, want) {
		t.Fatalf("fallbacks = %v, want %v", res.Fallbacks, want)
	}
	if res.Fallback != FallbackCascade {
		t.Fatalf("fallback = %v, want cascade", res.Fallback)
	}
	want := []*flow.Flow{moved(x, route), flows[1], flows[2], z}
	checkDelta(t, before, sched, &res.DeltaResult, want, cfg)
	if want := []int{10, 20}; !reflect.DeepEqual(res.Evicted, want) {
		t.Fatalf("evicted = %v, want %v", res.Evicted, want)
	}
	if len(res.Flows) != len(want) {
		t.Fatalf("post-batch workload has %d flows, want %d", len(res.Flows), len(want))
	}
	for i, g := range res.Flows {
		if g.ID != want[i].ID || !reflect.DeepEqual(g.Route, want[i].Route) {
			t.Fatalf("post-batch flow %d = %d on %v, want %d on %v", i, g.ID, g.Route, want[i].ID, want[i].Route)
		}
	}
	wantCounters(t, reg, map[string]int64{
		"sched.incremental.batch_ops":        1,
		"sched.incremental.fallback_cascade": 1,
		"sched.incremental.evictions":        2,
	})
}

// TestApplyDeltaBatchRebudget grows a flow's budget and then clears it, one
// rebudget op per call: the grid carries each new multiplicity, the post-op
// workload holds an updated copy while the input flow is untouched, and
// both calls count under rebudget_ops. A budget that does not match the
// route is rejected before the grid is touched.
func TestApplyDeltaBatchRebudget(t *testing.T) {
	reg := obs.NewRegistry()
	_, hop := threeIslands()
	f0 := &flow.Flow{ID: 0, Src: 0, Dst: 2, Period: 50, Deadline: 50}
	routeThrough(f0, 0, 1, 2)
	f1 := &flow.Flow{ID: 1, Src: 3, Dst: 5, Period: 100, Deadline: 100}
	routeThrough(f1, 3, 4, 5)
	flows := []*flow.Flow{f0, f1}
	cfg := Config{Algorithm: RC, NumChannels: 2, RhoT: 2, HopGR: hop, Retransmit: true}
	sched := deltaBase(t, flows, cfg)
	cfg.Metrics = reg

	for _, budget := range [][]int{{3, 2}, nil} {
		before := sched.Clone()
		res, err := ApplyDeltaBatch(sched, flows,
			[]BatchOp{{Kind: BatchRebudget, FlowID: f0.ID, Budget: budget}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := res.Flows[0]
		if g == f0 || !slices.Equal(g.TxBudget, budget) {
			t.Fatalf("post-op flow %d has budget %v, want a copy with %v", g.ID, g.TxBudget, budget)
		}
		if budget != nil && &g.TxBudget[0] == &budget[0] {
			t.Fatal("the placed flow aliases the op's budget")
		}
		// checkTiming counts every hop's transmissions per instance against
		// the flow's budget, or the uniform two attempts without one.
		checkDelta(t, before, sched, &res.DeltaResult, res.Flows, cfg)
		flows = res.Flows
	}
	if f0.TxBudget != nil || len(f0.Route) != 2 {
		t.Fatalf("input flow mutated: route %v budget %v", f0.Route, f0.TxBudget)
	}

	var before bytes.Buffer
	if err := sched.Encode(&before); err != nil {
		t.Fatal(err)
	}
	_, err := ApplyDeltaBatch(sched, flows,
		[]BatchOp{{Kind: BatchRebudget, FlowID: f0.ID, Budget: []int{2, 2, 2}}}, cfg)
	if err == nil {
		t.Fatal("a 3-hop budget on a 2-hop route was accepted")
	}
	var after bytes.Buffer
	if err := sched.Encode(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("a rejected rebudget changed the grid")
	}
	wantCounters(t, reg, map[string]int64{
		"sched.incremental.rebudget_ops": 2,
		"sched.incremental.reroute_ops":  0,
		"sched.incremental.batch_ops":    0,
	})
}

// TestApplyDeltaBatchOneOpLabel: a call with one op reports under its
// kind's label, never "batch", and its counters equal those of the
// single-op entry point that runs the same op on a copy of the grid.
func TestApplyDeltaBatchOneOpLabel(t *testing.T) {
	z := &flow.Flow{ID: 30, Src: 2, Dst: 5, Period: 8, Deadline: 8}
	routeThrough(z, 2, 5)
	detour := []flow.Link{{From: 0, To: 3}, {From: 3, To: 1}}
	for _, tc := range []struct {
		op BatchOp
		// entry runs op through its single-op entry point; nil when no entry
		// point exists or none takes a metrics sink.
		entry func(*schedule.Schedule, []*flow.Flow, Config) (*DeltaResult, error)
	}{
		{BatchOp{Kind: BatchAdd, Flow: z},
			func(s *schedule.Schedule, w []*flow.Flow, c Config) (*DeltaResult, error) {
				return AddFlowDelta(s, w, z, c)
			}},
		{BatchOp{Kind: BatchRemove, FlowID: 10},
			func(s *schedule.Schedule, _ []*flow.Flow, c Config) (*DeltaResult, error) {
				return RemoveFlowDelta(s, 10, c.Metrics)
			}},
		{BatchOp{Kind: BatchReroute, FlowID: 0, Route: detour},
			func(s *schedule.Schedule, w []*flow.Flow, c Config) (*DeltaResult, error) {
				return RerouteFlowDelta(s, w, 0, detour, c)
			}},
		{BatchOp{Kind: BatchRepair, Links: []flow.Link{{From: 3, To: 4}}},
			func(s *schedule.Schedule, w []*flow.Flow, c Config) (*DeltaResult, error) {
				// Repair has no single-op entry point; a second one-op batch
				// on the other grid must agree with the first.
				res, err := ApplyDeltaBatch(s, w, []BatchOp{{Kind: BatchRepair, Links: []flow.Link{{From: 3, To: 4}}}}, c)
				if err != nil {
					return nil, err
				}
				return &res.DeltaResult, nil
			}},
		{BatchOp{Kind: BatchCompact}, nil},
		{BatchOp{Kind: BatchRebudget, FlowID: 10, Budget: []int{1}}, nil},
	} {
		single, flows, cfg := rerouteCascadeBase(t, nil)
		batched := single.Clone()
		reg := obs.NewRegistry()
		cfg.Metrics = reg
		if _, err := ApplyDeltaBatch(batched, flows, []BatchOp{tc.op}, cfg); err != nil {
			t.Fatalf("%v: %v", tc.op.Kind, err)
		}
		wantCounters(t, reg, map[string]int64{
			"sched.incremental.ops":                             1,
			"sched.incremental." + tc.op.Kind.String() + "_ops": 1,
			"sched.incremental.batch_ops":                       0,
		})
		if tc.entry == nil {
			continue
		}
		ref := obs.NewRegistry()
		cfg.Metrics = ref
		if _, err := tc.entry(single, flows, cfg); err != nil {
			t.Fatalf("%v entry point: %v", tc.op.Kind, err)
		}
		if got, want := reg.Snapshot().Counters, ref.Snapshot().Counters; !reflect.DeepEqual(got, want) {
			t.Errorf("%v: one-op batch counters %v, entry point %v", tc.op.Kind, got, want)
		}
		if !bytes.Equal(canonicalBytes(t, batched), canonicalBytes(t, single)) {
			t.Errorf("%v: one-op batch and entry point left different grids", tc.op.Kind)
		}
	}
}

// TestAddFlowDeltaCascadeBudget builds an eviction chain longer than
// cascadeBudget — each flow's re-placement window ends just past the next
// flow's slot — and checks the cascade gives up at the budget and the ladder
// still succeeds through the full-reschedule rung (feasibility parity).
func TestAddFlowDeltaCascadeBudget(t *testing.T) {
	const chain = cascadeBudget + 2
	frame := 2 * chain
	var flows []*flow.Flow
	for k := 1; k <= chain; k++ {
		f := &flow.Flow{ID: 10 * k, Src: 0, Dst: 1, Period: frame, Deadline: k + 1}
		routeThrough(f, 0, 1)
		flows = append(flows, f)
	}
	cfg := Config{Algorithm: NR, NumChannels: 1}
	sched := deltaBase(t, flows, cfg)
	// Priority order packs flow k into slot k-1.
	before := sched.Clone()

	a := &flow.Flow{ID: 0, Src: 0, Dst: 1, Period: frame, Deadline: 1}
	routeThrough(a, 0, 1)
	res, err := AddFlowDelta(sched, flows, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback != FallbackFull {
		t.Fatalf("fallback = %v, want full (budget %d < chain %d)", res.Fallback, cascadeBudget, chain)
	}
	mutated := append(append([]*flow.Flow(nil), flows...), a)
	sort.Slice(mutated, func(i, j int) bool { return mutated[i].ID < mutated[j].ID })
	checkDelta(t, before, sched, res, mutated, cfg)
}

func TestAddFlowDeltaInfeasibleRollsBack(t *testing.T) {
	a := &flow.Flow{ID: 0, Src: 0, Dst: 1, Period: 100, Deadline: 1}
	routeThrough(a, 0, 1)
	cfg := Config{Algorithm: NR, NumChannels: 1}
	sched := deltaBase(t, []*flow.Flow{a}, cfg)
	before := sched.Clone()

	// Slot 0 is the only slot both flows can use; the incumbent outranks the
	// newcomer, so even a full reschedule fails.
	b := &flow.Flow{ID: 1, Src: 0, Dst: 1, Period: 100, Deadline: 1}
	routeThrough(b, 0, 1)
	res, err := AddFlowDelta(sched, []*flow.Flow{a}, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedulable {
		t.Fatal("impossible add reported schedulable")
	}
	if res.FailedFlow != b.ID {
		t.Fatalf("FailedFlow = %d, want %d", res.FailedFlow, b.ID)
	}
	if res.Changes != nil {
		t.Fatalf("failed op returned changes %v", res.Changes)
	}
	if !reflect.DeepEqual(txSet(sched), txSet(before)) {
		t.Fatal("failed op did not leave the schedule untouched")
	}
	// Feasibility parity: the from-scratch scheduler agrees.
	full, err := Run([]*flow.Flow{a, b}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.Schedulable {
		t.Fatal("full reschedule found a schedule the delta path missed")
	}
}

func TestDeltaValidation(t *testing.T) {
	_, hop := threeIslands()
	f0 := &flow.Flow{ID: 0, Src: 0, Dst: 2, Period: 50, Deadline: 50}
	routeThrough(f0, 0, 1, 2)
	flows := []*flow.Flow{f0}
	cfg := Config{Algorithm: RC, NumChannels: 2, RhoT: 2, HopGR: hop, Retransmit: true}
	sched := deltaBase(t, flows, cfg)

	bad := &flow.Flow{ID: 0, Src: 6, Dst: 8, Period: 50, Deadline: 50}
	routeThrough(bad, 6, 7, 8)
	if _, err := AddFlowDelta(sched, flows, bad, cfg); err == nil {
		t.Error("duplicate flow ID accepted")
	}
	odd := &flow.Flow{ID: 3, Src: 6, Dst: 8, Period: 30, Deadline: 30}
	routeThrough(odd, 6, 7, 8)
	if _, err := AddFlowDelta(sched, flows, odd, cfg); err == nil {
		t.Error("non-harmonic period accepted")
	}
	mis := Config{Algorithm: RC, NumChannels: 3, RhoT: 2, HopGR: hop}
	if _, err := AddFlowDelta(sched, flows, odd, mis); err == nil {
		t.Error("channel/offset mismatch accepted")
	}
	if _, err := RerouteFlowDelta(sched, flows, 42, f0.Route, cfg); err == nil {
		t.Error("reroute of unknown flow accepted")
	}
}

// TestDeltaChurnPlacementBound is the issue's disruption bound: admitting
// one flow into the 80-node Indriya workload must cost at least 5x fewer
// placement operations than rescheduling the network from scratch.
func TestDeltaChurnPlacementBound(t *testing.T) {
	tb, err := topology.Indriya(1)
	if err != nil {
		t.Fatal(err)
	}
	channels := topology.Channels(5)
	gc, err := tb.CommGraph(channels, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := tb.ReuseGraph(channels)
	if err != nil {
		t.Fatal(err)
	}
	aps := topology.AccessPoints(gc, 2)
	rng := rand.New(rand.NewSource(3))
	flows, err := flow.Generate(rng, gc, flow.GenConfig{
		NumFlows: 100, MinPeriodExp: 0, MaxPeriodExp: 2, Exclude: aps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := routing.Assign(flows, gc, routing.Config{Traffic: routing.PeerToPeer, APs: aps}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Algorithm: RC, NumChannels: len(channels), RhoT: 2,
		HopGR: gr.AllPairsHop(), Retransmit: true}

	base := flows[:len(flows)-1]
	churn := flows[len(flows)-1]
	sched := deltaBase(t, base, cfg)
	before := sched.Clone()

	res, err := AddFlowDelta(sched, base, churn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkDelta(t, before, sched, res, flows, cfg)

	// The full rescheduler's work for the same mutated workload: one
	// placement per transmission in the network.
	full, err := Run(flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Schedulable {
		t.Fatalf("full reschedule of the mutated workload unschedulable (flow %d)", full.FailedFlow)
	}
	fullOps := full.Schedule.Len()
	if res.PlacementOps*5 > fullOps {
		t.Fatalf("single-flow churn cost %d placements vs %d for a full reschedule (< 5x headroom)",
			res.PlacementOps, fullOps)
	}
	t.Logf("churn placements %d vs full %d (%.1fx fewer)",
		res.PlacementOps, fullOps, float64(fullOps)/float64(res.PlacementOps))
}

// TestDeltaPropertyRandomChurn drives random Add/Remove/Reroute sequences
// against the delta scheduler, checking after every operation that the live
// schedule is valid, timing holds, Changes equals the real diff, and
// infeasibility agrees with the from-scratch scheduler.
func TestDeltaPropertyRandomChurn(t *testing.T) {
	const (
		seeds = 6
		steps = 14
	)
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8
		_, hop := ringGraph(n)
		cfg := Config{Algorithm: RC, NumChannels: 2, RhoT: 2, HopGR: hop,
			Retransmit: seed%2 == 0}

		newFlow := func(id, period int) *flow.Flow {
			src := rng.Intn(n)
			hops := 1 + rng.Intn(3)
			dir := 1
			if rng.Intn(2) == 0 {
				dir = -1
			}
			nodes := make([]int, hops+1)
			for i := range nodes {
				nodes[i] = ((src+dir*i)%n + n) % n
			}
			if period == 0 {
				periods := []int{50, 100}
				period = periods[rng.Intn(len(periods))]
			}
			f := &flow.Flow{ID: id, Src: nodes[0], Dst: nodes[hops], Period: period}
			minD := hops * cfg.attempts()
			f.Deadline = minD + rng.Intn(f.Period-minD+1)
			routeThrough(f, nodes...)
			return f
		}
		randomRoute := func(f *flow.Flow) []flow.Link {
			// The other way around the ring.
			hops := n - len(f.Route)
			nodes := make([]int, hops+1)
			for i := range nodes {
				nodes[i] = ((f.Src-i)%n + n) % n
			}
			if nodes[0] != f.Src || nodes[hops] != f.Dst {
				// Walk direction must match the original route's.
				for i := range nodes {
					nodes[i] = (f.Src + i) % n
				}
			}
			if nodes[hops] != f.Dst {
				return nil
			}
			route := make([]flow.Link, hops)
			for i := range route {
				route[i] = flow.Link{From: nodes[i], To: nodes[i+1]}
			}
			return route
		}

		// Start from a lightly loaded feasible base whose hyperperiod (and
		// so the slotframe every later churn must divide) is pinned at 100.
		var sched *schedule.Schedule
		var workload []*flow.Flow
		for try := 0; ; try++ {
			if try >= 20 {
				t.Fatalf("seed %d: no feasible base workload found", seed)
			}
			workload = []*flow.Flow{newFlow(0, 100), newFlow(1, 0)}
			res0, err := Run(workload, cfg)
			if err != nil {
				t.Fatalf("seed %d: base run: %v", seed, err)
			}
			if res0.Schedulable {
				sched = res0.Schedule
				break
			}
		}

		for step := 0; step < steps; step++ {
			before := sched.Clone()
			op := rng.Intn(3)
			switch {
			case op == 0 || len(workload) == 1:
				// Random priority: sometimes above existing flows, forcing
				// the eviction/full rungs.
				id := rng.Intn(1000)
				used := false
				for _, g := range workload {
					if g.ID == id {
						used = true
						break
					}
				}
				if used {
					continue
				}
				f := newFlow(id, 0)
				res, err := AddFlowDelta(sched, workload, f, cfg)
				if err != nil {
					t.Fatalf("seed %d step %d: add: %v", seed, step, err)
				}
				mutated := withFlow(workload, f)
				if res.Schedulable {
					workload = mutated
					checkDelta(t, before, sched, res, workload, cfg)
				} else {
					assertUnchangedAndInfeasible(t, seed, step, sched, before, mutated, cfg)
				}
			case op == 1:
				victim := workload[rng.Intn(len(workload))]
				res, err := RemoveFlowDelta(sched, victim.ID, nil)
				if err != nil {
					t.Fatalf("seed %d step %d: remove: %v", seed, step, err)
				}
				var rest []*flow.Flow
				for _, g := range workload {
					if g.ID != victim.ID {
						rest = append(rest, g)
					}
				}
				workload = rest
				checkDelta(t, before, sched, res, workload, cfg)
			default:
				target := workload[rng.Intn(len(workload))]
				route := randomRoute(target)
				if route == nil {
					continue
				}
				res, err := RerouteFlowDelta(sched, workload, target.ID, route, cfg)
				if err != nil {
					t.Fatalf("seed %d step %d: reroute: %v", seed, step, err)
				}
				moved := *target
				moved.Route = route
				var mutated []*flow.Flow
				for _, g := range workload {
					if g.ID == target.ID {
						mutated = append(mutated, &moved)
					} else {
						mutated = append(mutated, g)
					}
				}
				if res.Schedulable {
					workload = mutated
					checkDelta(t, before, sched, res, workload, cfg)
				} else {
					assertUnchangedAndInfeasible(t, seed, step, sched, before, mutated, cfg)
				}
			}
		}
	}
}

// assertUnchangedAndInfeasible checks a failed delta op's two obligations:
// the schedule is byte-for-byte where it was, and the from-scratch scheduler
// also finds the mutated workload infeasible (feasibility parity).
func assertUnchangedAndInfeasible(t *testing.T, seed int64, step int,
	sched, before *schedule.Schedule, mutated []*flow.Flow, cfg Config) {
	t.Helper()
	if !reflect.DeepEqual(txSet(sched), txSet(before)) {
		t.Fatalf("seed %d step %d: failed op mutated the schedule", seed, step)
	}
	sort.Slice(mutated, func(i, j int) bool { return mutated[i].ID < mutated[j].ID })
	full, err := Run(mutated, cfg)
	if err != nil {
		t.Fatalf("seed %d step %d: full run: %v", seed, step, err)
	}
	if full.Schedulable {
		t.Fatalf("seed %d step %d: full reschedule feasible but delta path failed", seed, step)
	}
}

// TestRerouteFlowDeltaAdaptsBudget: a budgeted flow rerouted onto a route
// with a different hop count must place under a refitted budget (every hop
// at the old budget's minimum) rather than failing validation — the shed/
// re-budget carryover bug. The caller-visible contract is checked too: the
// placed transmission count matches the adapted budget exactly.
func TestRerouteFlowDeltaAdaptsBudget(t *testing.T) {
	// A 6-node graph with a 2-hop route 0→1→5 and a 3-hop detour 0→2→3→5.
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 5}, {0, 2}, {2, 3}, {3, 5}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	hop := g.AllPairsHop()
	f := &flow.Flow{ID: 0, Src: 0, Dst: 5, Period: 100, Deadline: 100,
		TxBudget: []int{3, 2}}
	routeThrough(f, 0, 1, 5)
	flows := []*flow.Flow{f}
	cfg := Config{Algorithm: RC, NumChannels: 2, RhoT: 2, HopGR: hop, Retransmit: true}
	sched := deltaBase(t, flows, cfg)
	before := sched.Clone()

	detour := []flow.Link{{From: 0, To: 2}, {From: 2, To: 3}, {From: 3, To: 5}}
	res, err := RerouteFlowDelta(sched, flows, f.ID, detour, cfg)
	if err != nil {
		t.Fatalf("reroute of a budgeted flow onto a longer route: %v", err)
	}
	moved := *f
	moved.Route = detour
	moved.TxBudget = flow.AdaptBudget(f.TxBudget, len(detour))
	if want := []int{2, 2, 2}; !reflect.DeepEqual(moved.TxBudget, want) {
		t.Fatalf("adapted budget = %v, want %v", moved.TxBudget, want)
	}
	checkDelta(t, before, sched, res, []*flow.Flow{&moved}, cfg)
	got := 0
	for _, tx := range sched.Txs() {
		if tx.FlowID == f.ID {
			got++
		}
	}
	want := (sched.NumSlots() / f.Period) * (2 + 2 + 2)
	if got != want {
		t.Fatalf("placed %d transmissions, want %d (adapted budget)", got, want)
	}
	// The input flow itself must not have been mutated.
	if len(f.Route) != 2 || !reflect.DeepEqual(f.TxBudget, []int{3, 2}) {
		t.Fatalf("input flow mutated: route %v budget %v", f.Route, f.TxBudget)
	}
}

// TestEvictionCandidatesDeterministic pins the eviction ranking's order.
// The sort is unstable, so only the comparator may decide it: equal-score
// colliders must rank strictly by flow ID descending (lowest criticality
// evicted first), never by the order the workload or the grid lists them,
// and identically on every evaluation — the eviction sequence, and with it
// the delta's Changes, follows this order.
func TestEvictionCandidatesDeterministic(t *testing.T) {
	const frame = 16
	var flows []*flow.Flow
	mk := func(id, from, to, period, deadline int) {
		f := &flow.Flow{ID: id, Src: from, Dst: to, Period: period, Deadline: deadline}
		routeThrough(f, from, to)
		flows = append(flows, f)
	}
	// Three score tiers for the new flow below (route 0→1, window = frame):
	// two-instance on-route flows score 2·9, one-instance on-route flows 9,
	// off-route flows sharing only the window score 1 per transmission.
	for id := 10; id <= 14; id++ {
		mk(id, 0, 1, frame, frame)
	}
	for id := 20; id <= 22; id++ {
		mk(id, 0, 1, frame/2, frame/2)
	}
	for id := 30; id <= 33; id++ {
		mk(id, 2, 3, frame, frame)
	}
	cfg := Config{Algorithm: NR, NumChannels: 2}
	sched := deltaBase(t, flows, cfg)

	f := &flow.Flow{ID: 0, Src: 0, Dst: 1, Period: frame, Deadline: frame}
	routeThrough(f, 0, 1)
	want := []int{22, 21, 20, 14, 13, 12, 11, 10, 33, 32, 31, 30}
	for iter := 0; iter < 50; iter++ {
		d := newDeltaOp(sched, cfg, flows)
		cands := d.evictionCandidates(f)
		got := make([]int, len(cands))
		for i, c := range cands {
			got[i] = c.f.ID
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: candidate order %v, want %v", iter, got, want)
		}
		for i := 1; i < len(cands); i++ {
			a, b := cands[i-1], cands[i]
			if a.score < b.score || (a.score == b.score && a.f.ID < b.f.ID) {
				t.Fatalf("iter %d: ranking invariant broken at %d: flow %d (score %d) before flow %d (score %d)",
					iter, i, a.f.ID, a.score, b.f.ID, b.score)
			}
		}
	}
}

// TestApplyDeltaBatchErrorRollsBack: an op that fails validation after
// earlier ops of its batch have mutated the grid must leave the schedule
// exactly as the batch found it.
func TestApplyDeltaBatchErrorRollsBack(t *testing.T) {
	sched, flows, cfg := rerouteCascadeBase(t, nil)
	before := sched.Clone()
	_, err := ApplyDeltaBatch(sched, flows, []BatchOp{
		{Kind: BatchRemove, FlowID: flows[1].ID},
		{Kind: BatchReroute, FlowID: 42, Route: flows[0].Route},
	}, cfg)
	if err == nil {
		t.Fatal("reroute of an unknown flow accepted")
	}
	if !reflect.DeepEqual(txSet(sched), txSet(before)) {
		t.Fatal("failed batch left the earlier op's mutations in the schedule")
	}
}

// TestRepairCompactBatchRoundTrip applies a repair op and a compact op as
// one batch to an RA schedule of the WUSTL testbed with one flow retired:
// Changes must equal schedule.Diff of the before and after states, the
// workload must come back unchanged, and applying schedule.Invert(Changes)
// must restore the starting schedule's canonical bytes exactly.
func TestRepairCompactBatchRoundTrip(t *testing.T) {
	tb, err := topology.WUSTL(1)
	if err != nil {
		t.Fatal(err)
	}
	channels := topology.Channels(3)
	gc, err := tb.CommGraph(channels, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := tb.ReuseGraph(channels)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	flows, err := flow.Generate(rng, gc, flow.GenConfig{NumFlows: 30, MinPeriodExp: 0, MaxPeriodExp: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := routing.Assign(flows, gc, routing.Config{Traffic: routing.PeerToPeer}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Algorithm: RA, NumChannels: len(channels), RhoT: 2,
		HopGR: gr.AllPairsHop(), Retransmit: true}
	sched := deltaBase(t, flows, cfg)
	if _, err := RemoveFlowDelta(sched, flows[0].ID, nil); err != nil {
		t.Fatal(err)
	}
	flows = flows[1:]
	var degraded []flow.Link
	for l := range sched.ReusedLinks() {
		degraded = append(degraded, flow.Link{From: l[0], To: l[1]})
	}
	before := sched.Clone()
	res, err := ApplyDeltaBatch(sched, flows, []BatchOp{
		{Kind: BatchRepair, Links: degraded},
		{Kind: BatchCompact},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkDelta(t, before, sched, &res.DeltaResult, flows, cfg)
	if res.Moved == 0 || len(res.Unmovable) == 0 {
		t.Fatalf("moved %d, unmovable %d: the batch should do both", res.Moved, len(res.Unmovable))
	}
	if !slices.Equal(res.Flows, flows) {
		t.Fatal("a repair or compact op changed the workload")
	}
	restored := sched.Clone()
	if err := schedule.Apply(restored, schedule.Invert(res.Changes)); err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalBytes(t, restored), canonicalBytes(t, before); !bytes.Equal(got, want) {
		t.Fatal("applying the inverted changes did not restore the starting schedule")
	}
}

// canonicalBytes encodes a schedule with its transmissions in a
// history-independent order.
func canonicalBytes(t *testing.T, s *schedule.Schedule) []byte {
	t.Helper()
	txs := slices.Clone(s.Txs())
	slices.SortFunc(txs, func(a, b schedule.Tx) int {
		return cmp.Or(cmp.Compare(a.Slot, b.Slot), cmp.Compare(a.Offset, b.Offset),
			cmp.Compare(a.FlowID, b.FlowID), cmp.Compare(a.Instance, b.Instance),
			cmp.Compare(a.Hop, b.Hop), cmp.Compare(a.Attempt, b.Attempt))
	})
	c, err := schedule.New(s.NumSlots(), s.NumOffsets(), s.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range txs {
		if err := c.Place(tx); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
