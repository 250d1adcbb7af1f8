package manage

import (
	"reflect"
	"testing"

	"wsan/internal/budget"
	"wsan/internal/faults"
	"wsan/internal/flow"
	"wsan/internal/graph"
	"wsan/internal/netsim"
	"wsan/internal/schedule"
	"wsan/internal/scheduler"
	"wsan/internal/topology"
)

// fabricatedResult builds a netsim.Result whose LinkEpochs yield the given
// per-link PRRs with plenty of evidence.
func fabricatedResult(prrs map[flow.Link]float64) *netsim.Result {
	res := &netsim.Result{LinkEpochs: make(map[flow.Link][]netsim.EpochStats)}
	for l, p := range prrs {
		att := 1000
		res.LinkEpochs[l] = []netsim.EpochStats{{
			CF: netsim.LinkCondStats{Attempts: att, Successes: int(p * float64(att))},
		}}
	}
	return res
}

// budgetedLine builds a 3-node line testbed with flow 0 targeted at the
// given PDR under the given starting budget, scheduled by the real
// scheduler so the delta machinery has its usual invariants.
func budgetedLine(t *testing.T, target float64, txBudget []int) (Config, *flow.Flow) {
	t.Helper()
	tb, flows, _ := lineNetwork(t)
	f := flows[0]
	f.TargetPDR = target
	f.TxBudget = append([]int(nil), txBudget...)
	g := graph.New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	res, err := scheduler.Run(flows, scheduler.Config{
		Algorithm: scheduler.NR, NumChannels: 4, RhoT: 2,
		HopGR: g.AllPairsHop(), Retransmit: true,
	})
	if err != nil || !res.Schedulable {
		t.Fatalf("seed schedule: %v schedulable=%v", err, res != nil && res.Schedulable)
	}
	cfg := Config{
		Testbed: tb, Flows: flows, Schedule: res.Schedule,
		Channels:          topology.Channels(4),
		EpochSlots:        2_000,
		SampleWindowSlots: 200,
	}
	return cfg, f
}

// checkMultiplicity fails unless every hop of every flow holds instances ×
// HopAttempts transmissions, with the two uniform attempts the re-budgeting
// placement schedules a flow without a budget at.
func checkMultiplicity(t *testing.T, cfg Config) {
	t.Helper()
	perHop := make(map[[2]int]int)
	for _, tx := range cfg.Schedule.Txs() {
		perHop[[2]int{tx.FlowID, tx.Hop}]++
	}
	for _, f := range cfg.Flows {
		for h := range f.Route {
			want := cfg.Schedule.NumSlots() / f.Period * f.HopAttempts(h, 2)
			if got := perHop[[2]int{f.ID, h}]; got != want {
				t.Errorf("flow %d hop %d holds %d transmissions, want %d (budget %v)",
					f.ID, h, got, want, f.TxBudget)
			}
		}
	}
}

// TestRebudgetGrows: observed PRRs fall below what the deployed budget can
// carry, so the pass must deepen the budget and re-place the flow.
func TestRebudgetGrows(t *testing.T) {
	cfg, f := budgetedLine(t, 0.9, []int{1, 1})
	res := fabricatedResult(map[flow.Link]float64{
		{From: 0, To: 1}: 0.8,
		{From: 1, To: 2}: 0.8,
	})
	var it Iteration
	if err := rebudgetPass(&cfg, res, &it); err != nil {
		t.Fatal(err)
	}
	checkMultiplicity(t, cfg)
	if it.Rebudgeted != 1 {
		t.Fatalf("rebudgeted = %d, want 1: %+v", it.Rebudgeted, it)
	}
	if len(it.Shortfalls) != 0 {
		t.Fatalf("unexpected shortfalls: %+v", it.Shortfalls)
	}
	// 0.78 shaded PRR: one attempt gives 0.78, two give 0.9516; the minimal
	// plan meeting 0.9 end-to-end is [3, 3] (0.9894²≈0.979) — anything
	// smaller tops out at 0.9516·0.9894 < 0.95… verify against the planner
	// itself rather than hand-arithmetic.
	plan, err := budget.Compute([]float64{0.78, 0.78}, 0.9, budget.DefaultMaxAttemptsPerHop)
	if err != nil || !plan.Feasible {
		t.Fatalf("reference plan: %v %+v", err, plan)
	}
	if !reflect.DeepEqual(f.TxBudget, plan.Attempts) {
		t.Errorf("budget = %v, want planner's %v", f.TxBudget, plan.Attempts)
	}
}

// TestRebudgetTightens: PRRs recovered, so a budget planned for bad links
// gives slots back.
func TestRebudgetTightens(t *testing.T) {
	cfg, f := budgetedLine(t, 0.9, []int{4, 4})
	res := fabricatedResult(map[flow.Link]float64{
		{From: 0, To: 1}: 1.0,
		{From: 1, To: 2}: 1.0,
	})
	var it Iteration
	if err := rebudgetPass(&cfg, res, &it); err != nil {
		t.Fatal(err)
	}
	checkMultiplicity(t, cfg)
	if it.Rebudgeted != 1 || len(it.Shortfalls) != 0 {
		t.Fatalf("want one clean tightening: %+v", it)
	}
	want := []int{2, 2} // 0.98 shaded: (1-0.02²)² ≈ 0.9992 ≥ 0.9; [1,1] is only 0.9604·… = 0.9604² ≈ 0.92? planner decides
	plan, err := budget.Compute([]float64{0.98, 0.98}, 0.9, budget.DefaultMaxAttemptsPerHop)
	if err != nil {
		t.Fatal(err)
	}
	want = plan.Attempts
	if !reflect.DeepEqual(f.TxBudget, want) {
		t.Errorf("budget = %v, want %v", f.TxBudget, want)
	}
	if f.TotalAttempts(2) >= 8 {
		t.Errorf("tightening should reclaim slots: %v", f.TxBudget)
	}
}

// TestRebudgetShortfall: links so bad the per-hop cap cannot carry the
// target — the pass must deploy the best-effort budget and report the
// shortfall honestly.
func TestRebudgetShortfall(t *testing.T) {
	cfg, f := budgetedLine(t, 0.99, []int{1, 1})
	res := fabricatedResult(map[flow.Link]float64{
		{From: 0, To: 1}: 0.5,
		{From: 1, To: 2}: 0.5,
	})
	var it Iteration
	if err := rebudgetPass(&cfg, res, &it); err != nil {
		t.Fatal(err)
	}
	checkMultiplicity(t, cfg)
	if len(it.Shortfalls) != 1 {
		t.Fatalf("shortfalls = %+v, want one", it.Shortfalls)
	}
	sf := it.Shortfalls[0]
	if sf.FlowID != 0 || sf.Target != 0.99 {
		t.Errorf("shortfall = %+v", sf)
	}
	if sf.Predicted >= sf.Target || sf.Predicted <= 0 {
		t.Errorf("predicted %v should sit below the %v target", sf.Predicted, sf.Target)
	}
	// Best effort: the cap is deployed anyway.
	want := []int{budget.DefaultMaxAttemptsPerHop, budget.DefaultMaxAttemptsPerHop}
	if !reflect.DeepEqual(f.TxBudget, want) {
		t.Errorf("budget = %v, want capped best effort %v", f.TxBudget, want)
	}
}

// TestRebudgetStable: observed PRRs match what the deployed budget was
// planned for — the pass must not touch anything.
func TestRebudgetStable(t *testing.T) {
	cfg, f := budgetedLine(t, 0.9, []int{2, 2})
	res := fabricatedResult(map[flow.Link]float64{
		{From: 0, To: 1}: 0.9,
		{From: 1, To: 2}: 0.9,
	})
	var it Iteration
	if err := rebudgetPass(&cfg, res, &it); err != nil {
		t.Fatal(err)
	}
	checkMultiplicity(t, cfg)
	if it.Rebudgeted != 0 || len(it.Shortfalls) != 0 {
		t.Fatalf("stable PRRs must be a no-op: %+v", it)
	}
	if !reflect.DeepEqual(f.TxBudget, []int{2, 2}) {
		t.Errorf("budget moved to %v", f.TxBudget)
	}
}

// TestLoopRebudgetsUnderFading is the end-to-end check of the ISSUE's
// acceptance criterion: a targeted flow deployed with a minimal budget
// faces a lossy radio environment; within one evaluation window the loop
// must either re-budget it back above target or report its shortfall.
func TestLoopRebudgetsUnderFading(t *testing.T) {
	cfg, f := budgetedLine(t, 0.9, []int{1, 1})
	cfg.FadingSigmaDB = 30
	cfg.MaxIterations = 4
	cfg.Seed = 7
	cfg.OnIteration = func(Iteration) { checkMultiplicity(t, cfg) }
	iters, err := Loop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) == 0 {
		t.Fatal("no iterations")
	}
	first := iters[0]
	if first.Rebudgeted != 1 && len(first.Shortfalls) == 0 {
		t.Fatalf("first window must re-budget or report shortfall: %+v", first)
	}
	if f.TotalAttempts(2) <= 2 {
		t.Errorf("budget should have deepened from [1 1]: %v", f.TxBudget)
	}
	last := iters[len(iters)-1]
	if last.Health == Degraded && len(last.Shortfalls) == 0 && len(last.DegradedFlows) == 0 {
		t.Errorf("degraded end state must explain itself: %+v", last)
	}
}

// TestLoopBlacklistParole is the burst-then-quiet regression: a one-window
// interference burst condemns a channel; after the configured clean
// iterations the channel must return to the hopping list and its
// replacement to the spare pool.
func TestLoopBlacklistParole(t *testing.T) {
	mk := func(stopAt int) (Config, *faults.Scenario) {
		tb, flows, _ := lineNetwork(t)
		// Single-attempt schedule on an 18-slot frame: hop h occupies slot
		// h, and 18 % 4 ≠ 0 walks the hops over all four channels across
		// hyperperiods, so a single jammed channel both hurts delivery and
		// leaves clean contrast channels.
		sched, err := schedule.New(18, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		for h, l := range flows[0].Route {
			if err := sched.Place(schedule.Tx{FlowID: 0, Hop: h, Attempt: 0, Link: l, Slot: h}); err != nil {
				t.Fatal(err)
			}
		}
		flows[0].Period, flows[0].Deadline = 18, 18
		sc := &faults.Scenario{Events: []faults.Event{
			{At: 0, Kind: faults.InterferenceStart, Channels: []int{0}, PowerDBm: -20},
		}}
		if stopAt > 0 {
			sc.Events = append(sc.Events, faults.Event{At: stopAt, Kind: faults.InterferenceStop, Channels: []int{0}})
		}
		return Config{
			Testbed: tb, Flows: flows, Schedule: sched,
			Channels:                       topology.Channels(4),
			EpochSlots:                     1_998, // 111 hyperperiods of 18 slots
			SampleWindowSlots:              333,
			MaxIterations:                  8,
			BlacklistParoleCleanIterations: 2,
			Seed:                           11,
		}, sc
	}

	// Burst ends exactly when the first window does.
	cfg, sc := mk(1_998)
	cfg.Faults = sc
	iters, err := Loop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != 4 {
		t.Fatalf("want 4 iterations (blacklist, clean, rehab, clean exit), got %d: %+v", len(iters), iters)
	}
	if got := iters[0].Blacklisted; !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("first iteration blacklisted %v, want [0]", got)
	}
	if got := iters[2].Rehabilitated; !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("third iteration rehabilitated %v, want [0]: %+v", got, iters)
	}
	last := iters[len(iters)-1]
	if !reflect.DeepEqual(last.Channels, topology.Channels(4)) {
		t.Errorf("hopping list %v, want the original restored", last.Channels)
	}
	if last.Health != Recovered {
		t.Errorf("final health = %v, want Recovered", last.Health)
	}

	// Persistent interference: the channel relapses after parole and is
	// then condemned for good — no second parole, no flapping.
	cfg, sc = mk(0)
	cfg.Faults = sc
	iters, err = Loop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rehabs, blacklists := 0, 0
	for _, it := range iters {
		rehabs += len(it.Rehabilitated)
		blacklists += len(it.Blacklisted)
	}
	if rehabs != 1 {
		t.Errorf("rehabilitations = %d, want exactly one parole", rehabs)
	}
	if blacklists != 2 {
		t.Errorf("blacklist events = %d, want 2 (original + relapse)", blacklists)
	}
	last = iters[len(iters)-1]
	for _, ch := range last.Channels {
		if ch == 0 {
			t.Errorf("relapsed channel 0 still in the hopping list %v", last.Channels)
		}
	}
}

// TestShedOnlyWhenItBuysPlacement: flow 0 asks for more attempts than the
// 20-slot frame holds beside two lower-criticality victims at one attempt
// per hop. Every link shares the relay, so a slot carries one
// transmission. With 7 attempts per hop the flow fits only after both
// victims are shed, and both concessions count. With 9 it never fits, so
// the sheds bought nothing: each victim keeps its budget and its
// transmissions, and nothing counts as shed.
func TestShedOnlyWhenItBuysPlacement(t *testing.T) {
	for _, tc := range []struct {
		attempts int
		placed   bool
		shed     int
	}{{7, true, 8}, {9, false, 0}} {
		tb, _, _ := lineNetwork(t)
		var flows []*flow.Flow
		for id := 0; id < 3; id++ {
			flows = append(flows, &flow.Flow{ID: id, Src: 0, Dst: 2, Period: 20, Deadline: 20,
				Route:     []flow.Link{{From: 0, To: 1}, {From: 1, To: 2}},
				TargetPDR: 0.9, TxBudget: []int{3, 3}})
		}
		g := graph.New(3)
		if err := g.AddEdge(0, 1); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(1, 2); err != nil {
			t.Fatal(err)
		}
		res, err := scheduler.Run(flows, scheduler.Config{
			Algorithm: scheduler.NR, NumChannels: 4, RhoT: 2,
			HopGR: g.AllPairsHop(), Retransmit: true,
		})
		if err != nil || !res.Schedulable {
			t.Fatalf("seed schedule: %v schedulable=%v", err, res != nil && res.Schedulable)
		}
		cfg := Config{Testbed: tb, Flows: flows, Schedule: res.Schedule, Channels: topology.Channels(4)}
		before := cfg.Schedule.Clone()
		place := scheduler.Config{Algorithm: scheduler.NR, NumChannels: 4, Retransmit: true}
		var it Iteration
		want := []int{tc.attempts, tc.attempts}
		placed, err := applyBudget(&cfg, flows[0], want, place, &it)
		if err != nil {
			t.Fatal(err)
		}
		if placed != tc.placed || it.RetriesShed != tc.shed {
			t.Fatalf("%d attempts: placed %v, %d retries shed from %v; want %v, %d",
				tc.attempts, placed, it.RetriesShed, it.ShedFlows, tc.placed, tc.shed)
		}
		checkMultiplicity(t, cfg)
		if placed {
			if !reflect.DeepEqual(it.ShedFlows, []int{1, 2}) || !reflect.DeepEqual(flows[0].TxBudget, want) {
				t.Errorf("shed flows %v, budget %v", it.ShedFlows, flows[0].TxBudget)
			}
			continue
		}
		if len(it.ShedFlows) != 0 {
			t.Errorf("shed flows %v for a placement that failed", it.ShedFlows)
		}
		for _, f := range flows {
			if !reflect.DeepEqual(f.TxBudget, []int{3, 3}) {
				t.Errorf("flow %d budget %v, want [3 3] back", f.ID, f.TxBudget)
			}
		}
		if changes, err := schedule.Diff(before, cfg.Schedule); err != nil || len(changes) != 0 {
			t.Errorf("schedule moved by %d changes (%v): %v", len(changes), err, changes)
		}
	}
}
