package scheduler

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"wsan/internal/flow"
	"wsan/internal/obs"
	"wsan/internal/schedule"
)

// TestFailedPlacementKeepsTxs: a placement that misses a deadline after
// placing earlier instances removes exactly what it placed, so Txs — whose
// order reaches Encode's bytes — is identical to before the attempt, and
// so are the cells. The grid's list has been shuffled by an earlier
// removal, and the failed flow places four transmissions before it fails.
func TestFailedPlacementKeepsTxs(t *testing.T) {
	cfg := Config{Algorithm: NR, NumChannels: 2}
	sched, err := schedule.New(20, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 is busy from slot 10 on; flow 7 sits in slots 0–9 away from
	// the new flow's nodes.
	for slot := 10; slot < 20; slot++ {
		if err := sched.Place(schedule.Tx{FlowID: 9, Instance: slot, Link: flow.Link{From: 2, To: 0}, Slot: slot}); err != nil {
			t.Fatal(err)
		}
		if err := sched.Place(schedule.Tx{FlowID: 7, Instance: slot, Link: flow.Link{From: 4, To: 2}, Slot: slot - 10}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sched.Remove(sched.Txs()[3]); err != nil {
		t.Fatal(err)
	}
	before, ver := slices.Clone(sched.Txs()), sched.Version()
	beforeBytes := canonicalBytes(t, sched)
	f := &flow.Flow{ID: 5, Src: 0, Dst: 3, Period: 5, Deadline: 5}
	routeThrough(f, 0, 1, 3)
	d := newDeltaOp(sched, cfg, nil)
	defer d.release()
	if ok, err := d.placeFlow(f); ok || err != nil {
		t.Fatalf("placeFlow = %v, %v; want a deadline miss", ok, err)
	}
	if placed := (sched.Version() - ver) / 2; placed != 4 {
		t.Fatalf("the failed placement placed %d transmissions first, want 4 (two instances of two hops)", placed)
	}
	if !slices.Equal(sched.Txs(), before) {
		t.Fatalf("Txs after the failed placement:\n%v\nbefore:\n%v", sched.Txs(), before)
	}
	if !slices.Equal(canonicalBytes(t, sched), beforeBytes) {
		t.Fatal("the failed placement changed the grid")
	}
	if len(d.ops) != 0 {
		t.Fatalf("the failed placement journaled %d entries", len(d.ops))
	}
}

// snapshot deep-copies a batch result's slices and the flows it lists, so
// a later comparison sees any write through memory the result aliases.
func snapshot(res *BatchResult) BatchResult {
	c := *res
	c.Changes = slices.Clone(res.Changes)
	c.Evicted = slices.Clone(res.Evicted)
	c.Unmovable = slices.Clone(res.Unmovable)
	c.Fallbacks = slices.Clone(res.Fallbacks)
	c.Flows = make([]*flow.Flow, len(res.Flows))
	for i, f := range res.Flows {
		g := *f
		g.Route, g.TxBudget = slices.Clone(f.Route), slices.Clone(f.TxBudget)
		c.Flows[i] = &g
	}
	return c
}

// TestDeltaResultOutlivesPooledScratch: a delta op's result shares no
// memory with the scratch later ops reuse. Op A's results — a cascade
// (Evicted) through the single-op and the tracked batch entry points, and a
// repair (Unmovable) — are kept while other ops run on other grids: churn
// streams whose cascades evict other flows, and a repair of other links.
// A's results must not change.
func TestDeltaResultOutlivesPooledScratch(t *testing.T) {
	route := []flow.Link{{From: 0, To: 3}, {From: 3, To: 1}}
	z := &flow.Flow{ID: 30, Src: 2, Dst: 5, Period: 8, Deadline: 8}
	routeThrough(z, 2, 5)
	sched, flows, cfg := rerouteCascadeBase(t, nil)
	one, err := RerouteFlowDelta(sched, flows, flows[0].ID, route, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched, flows, cfg = rerouteCascadeBase(t, nil)
	batch, err := ApplyDeltaBatch(sched, flows, []BatchOp{
		{Kind: BatchAdd, Flow: z},
		{Kind: BatchReroute, FlowID: flows[0].ID, Route: route},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rsched, rflows, rcfg, degraded := repairBase(t)
	slices.SortFunc(degraded, func(a, b flow.Link) int { return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To)) })
	half := len(degraded) / 2
	repair, err := ApplyDeltaBatch(rsched, rflows, []BatchOp{{Kind: BatchRepair, Links: degraded[:half]}}, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	kept := []*BatchResult{{DeltaResult: *one}, batch, repair}
	var want []BatchResult
	for _, res := range kept {
		want = append(want, snapshot(res))
	}
	if len(kept[0].Evicted) == 0 || len(kept[1].Evicted) == 0 || len(kept[2].Unmovable) == 0 || len(kept[1].Flows) == 0 {
		t.Fatalf("weak coverage: evicted %v and %v, %d unmovable, %d tracked flows",
			kept[0].Evicted, kept[1].Evicted, len(kept[2].Unmovable), len(kept[1].Flows))
	}
	rsched, rflows, rcfg, _ = repairBase(t)
	other, err := ApplyDeltaBatch(rsched, rflows, []BatchOp{{Kind: BatchRepair, Links: degraded[half:]}}, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(other.Unmovable) == 0 {
		t.Fatal("weak coverage: the second repair leaves nothing unmovable")
	}
	for seed := int64(0); seed < 6; seed++ {
		if _, err := churnTranscript(seed, 30); err != nil {
			t.Fatal(err)
		}
	}
	for i, res := range kept {
		if got := snapshot(res); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("result %d changed after later ops:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
}

// churnTranscript drives a metamorphic churn stream and records every op's
// result and the final grid. Single ops go through the untracked entry
// points, longer batches through ApplyDeltaBatch.
func churnTranscript(seed int64, steps int) (string, error) {
	m, err := newMetaChurn(seed, []Algorithm{NR, RA, RC}[seed%3])
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for step := 0; step < steps; step++ {
		ops := m.nextOps()
		var res *DeltaResult
		work := m.work
		if op := ops[0]; len(ops) == 1 {
			switch op.Kind {
			case BatchAdd:
				res, err = AddFlowDelta(m.sched, m.work, op.Flow, m.cfg)
				work = withFlow(m.work, op.Flow)
			case BatchRemove:
				res, err = RemoveFlowDelta(m.sched, op.FlowID, nil)
				work = setFlow(slices.Clone(m.work), op.FlowID, nil)
			default:
				res, err = RerouteFlowDelta(m.sched, m.work, op.FlowID, op.Route, m.cfg)
				rerouted := *m.work[findFlow(m.work, op.FlowID)]
				rerouted.SetRoute(op.Route)
				work = withFlow(m.work, &rerouted)
			}
		} else {
			var bres *BatchResult
			if bres, err = ApplyDeltaBatch(m.sched, m.work, ops, m.cfg); err == nil {
				res, work = &bres.DeltaResult, bres.Flows
			}
		}
		if err != nil {
			return "", fmt.Errorf("seed %d step %d: %w", seed, step, err)
		}
		if res.Schedulable {
			m.work = work
		}
		fmt.Fprintf(&b, "%d: %v %v %d %v %d/%d %v\n", step, res.Schedulable, res.Fallback, res.FailedFlow,
			res.Evicted, res.PlacementOps, res.RemovalOps, res.Changes)
	}
	fmt.Fprintf(&b, "%v\n", m.sched.Txs())
	return b.String(), nil
}

// TestConcurrentDeltaGrids runs churn streams on distinct grids at once,
// all drawing their scratch from the shared deltaPool, and requires each
// stream's transcript to equal its serial replay. make soak-smoke runs it
// under the race detector, which fails on any memory two concurrent ops
// share.
func TestConcurrentDeltaGrids(t *testing.T) {
	const streams = 4
	steps := 40
	if testing.Short() {
		steps = 15
	}
	want := make([]string, streams)
	for i := range want {
		var err error
		if want[i], err = churnTranscript(int64(i), steps); err != nil {
			t.Fatal(err)
		}
	}
	got, errs := make([]string, streams), make([]error, streams)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = churnTranscript(int64(i), steps)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("stream %d run concurrently differs from its serial replay:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// invertInto writes the changes that undo changes into buf, without the
// canonical sort Apply does not need: it applies every removal before any
// addition.
func invertInto(buf, changes []schedule.Change) []schedule.Change {
	buf = buf[:0]
	for _, c := range changes {
		k := schedule.Added
		if c.Kind == schedule.Added {
			k = schedule.Removed
		}
		buf = append(buf, schedule.Change{Kind: k, Tx: c.Tx})
	}
	return buf
}

// TestDeltaOpAllocs pins, on the 500-flow churn grid, how often each delta
// op allocates: the result and little else, as the journal, the
// transmission buffer, the ranking's scratch and the engine's tables come
// from deltaPool, and the grid reuses its position lists and cell
// carvings. Each run undoes its op through a reused buffer that allocates
// nothing. The bounds are upper bounds: a collection empties the pool and
// costs the next op its scratch. Every op runs again with a metrics sink
// attached, held to the same bound and to its sinkless count: a flush names
// its counters with constants and allocates nothing per op. The race
// detector's sync.Pool drops pooled objects at random, so the test does not
// run under it.
func TestDeltaOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	g := newChurnGrid(t)
	var undo []schedule.Change
	revert := func(res *DeltaResult, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if !res.Schedulable {
			t.Fatalf("op infeasible at flow %d", res.FailedFlow)
		}
		undo = invertInto(undo, res.Changes)
		if err := schedule.Apply(g.sched, undo); err != nil {
			t.Fatal(err)
		}
	}
	var reroute BatchOp
	for _, f := range g.active {
		if len(f.Route) >= 2 {
			if route := g.detour(f, f.Route[0].To); route != nil {
				reroute = BatchOp{Kind: BatchReroute, FlowID: f.ID, Route: route}
				break
			}
		}
	}
	var batch []BatchOp
	for node := 0; len(batch) < 8 && node < g.gc.Len(); node++ {
		batch = batch[:0]
		for _, f := range g.active {
			if len(batch) == 8 {
				break
			}
			if f.Src != node && f.Dst != node && slices.ContainsFunc(f.Route, func(l flow.Link) bool { return l.From == node || l.To == node }) {
				if route := g.detour(f, node); route != nil {
					batch = append(batch, BatchOp{Kind: BatchReroute, FlowID: f.ID, Route: route})
				}
			}
		}
	}
	if reroute.Route == nil || len(batch) < 8 {
		t.Fatal("no reroute or 8-op node-fault batch on the churn grid")
	}
	added := g.remove(t, 7)
	sinkless := map[string]float64{}
	for _, sink := range []obs.Sink{nil, obs.NewRegistry()} {
		cfg := g.cfg
		cfg.Metrics = sink
		for _, tc := range []struct {
			name  string
			bound float64
			op    func()
		}{
			{"add", 3, func() { revert(AddFlowDelta(g.sched, g.active, added, cfg)) }},
			{"remove", 3, func() { revert(RemoveFlowDelta(g.sched, g.active[3].ID, sink)) }},
			{"reroute", 5, func() {
				revert(RerouteFlowDelta(g.sched, g.active, reroute.FlowID, reroute.Route, cfg))
			}},
			{"batch of 8", 25, func() {
				res, err := ApplyDeltaBatch(g.sched, g.active, batch, cfg)
				if err != nil {
					t.Fatal(err)
				}
				revert(&res.DeltaResult, nil)
			}},
		} {
			allocs := testing.AllocsPerRun(50, tc.op)
			name := tc.name
			if sink == nil {
				sinkless[name] = allocs
			} else {
				name += " with a sink"
				if allocs > sinkless[tc.name] {
					t.Errorf("%s: %v allocs per op, %v without the sink", name, allocs, sinkless[tc.name])
				}
			}
			t.Logf("%s: %v allocs per op", name, allocs)
			if allocs > tc.bound {
				t.Errorf("%s: %v allocs per op, want at most %v", name, allocs, tc.bound)
			}
		}
	}
}
