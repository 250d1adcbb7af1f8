package analysis

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"wsan/internal/flow"
	"wsan/internal/graph"
	"wsan/internal/scheduler"
)

func TestDelayAnalysisSingleFlow(t *testing.T) {
	f := mkFlow(0, 0, 3, 100, 50, 0, 1, 2, 3)
	bounds, err := DelayAnalysis([]*flow.Flow{f}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != 1 {
		t.Fatalf("got %d bounds", len(bounds))
	}
	// No interference: response = C = 3 hops × 2 attempts.
	if bounds[0].ResponseSlots != 6 || !bounds[0].Schedulable {
		t.Errorf("bound = %+v, want 6 slots schedulable", bounds[0])
	}
	if !AllSchedulable(bounds) {
		t.Error("AllSchedulable should hold")
	}
}

func TestDelayAnalysisConflictingFlows(t *testing.T) {
	// Both flows relay through node 1: the lower-priority flow is delayed by
	// every higher-priority transmission (all conflict).
	f0 := mkFlow(0, 0, 2, 100, 100, 0, 1, 2)
	f1 := mkFlow(1, 3, 4, 100, 100, 3, 1, 4)
	bounds, err := DelayAnalysis([]*flow.Flow{f0, f1}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// f1: C=2, one release of f0 contributes Ω=2 → R=4.
	if bounds[1].ResponseSlots != 4 {
		t.Errorf("f1 bound = %d, want 4", bounds[1].ResponseSlots)
	}
}

func TestDelayAnalysisChannelContention(t *testing.T) {
	// Node-disjoint flows on 1 channel: contention term divides by m=1, so
	// every higher-priority transmission delays.
	f0 := mkFlow(0, 0, 1, 100, 100, 0, 1)
	f1 := mkFlow(1, 2, 3, 100, 100, 2, 3)
	f2 := mkFlow(2, 4, 5, 100, 100, 4, 5)
	bounds, err := DelayAnalysis([]*flow.Flow{f0, f1, f2}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bounds[2].ResponseSlots != 3 {
		t.Errorf("f2 bound = %d, want 3 (two blockers + own slot)", bounds[2].ResponseSlots)
	}
	// With 3 channels the same flows do not contend at all.
	bounds, err = DelayAnalysis([]*flow.Flow{f0, f1, f2}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bounds[2].ResponseSlots != 2 {
		t.Errorf("f2 bound with 3 channels = %d, want 2", bounds[2].ResponseSlots)
	}
}

func TestDelayAnalysisDetectsOverload(t *testing.T) {
	// Higher-priority flow saturates the shared relay: the low-priority
	// flow's deadline cannot be met.
	f0 := mkFlow(0, 0, 2, 4, 4, 0, 1, 2)
	f1 := mkFlow(1, 3, 4, 16, 8, 3, 1, 4)
	bounds, err := DelayAnalysis([]*flow.Flow{f0, f1}, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bounds[1].Schedulable {
		t.Errorf("f1 should be deemed unschedulable: %+v", bounds[1])
	}
	if AllSchedulable(bounds) {
		t.Error("AllSchedulable should be false")
	}
}

func TestDelayAnalysisValidation(t *testing.T) {
	f := mkFlow(0, 0, 1, 10, 10, 0, 1)
	if _, err := DelayAnalysis(nil, 4, 2); err == nil {
		t.Error("empty set should fail")
	}
	if _, err := DelayAnalysis([]*flow.Flow{f}, 0, 2); err == nil {
		t.Error("zero channels should fail")
	}
	noRoute := &flow.Flow{ID: 0, Src: 0, Dst: 1, Period: 10, Deadline: 10}
	if _, err := DelayAnalysis([]*flow.Flow{noRoute}, 4, 2); err == nil {
		t.Error("unrouted flow should fail")
	}
}

// TestDelayAnalysisSound is the key property: whenever the bound admits a
// flow set, the NR scheduler must actually schedule it. Random workloads on
// random topologies probe the claim.
func TestDelayAnalysisSound(t *testing.T) {
	admitted, checked := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		flows := randomRoutedSet(t, rng, false)
		if flows == nil {
			continue
		}
		m := 1 + rng.Intn(4)
		attempts := 1 + rng.Intn(2)
		bounds, err := DelayAnalysis(flows, m, attempts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checked++
		if !AllSchedulable(bounds) {
			continue
		}
		admitted++
		res, err := scheduler.Run(flows, scheduler.Config{
			Algorithm:   scheduler.NR,
			NumChannels: m,
			Retransmit:  attempts == 2,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Schedulable {
			t.Fatalf("seed %d: analysis admitted an NR-unschedulable set (m=%d attempts=%d)",
				seed, m, attempts)
		}
	}
	if admitted == 0 {
		t.Fatalf("soundness never exercised (checked %d sets)", checked)
	}
	t.Logf("soundness verified on %d/%d admitted flow sets", admitted, checked)
}

// randomRoutedSet draws 2–9 flows on a random 8–17 node graph and routes
// each on a shortest path, with a 1–3 attempt budget per hop if budgeted.
// It returns nil when the draw fails or a flow has no path.
func randomRoutedSet(t *testing.T, rng *rand.Rand, budgeted bool) []*flow.Flow {
	t.Helper()
	n := 8 + rng.Intn(10)
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.3 {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	flows, err := flow.Generate(rng, g, flow.GenConfig{
		NumFlows: 2 + rng.Intn(8), MinPeriodExp: -1, MaxPeriodExp: 1,
	})
	if err != nil {
		return nil
	}
	for _, f := range flows {
		path := g.ShortestPathHop(f.Src, f.Dst)
		if path == nil {
			return nil
		}
		f.Route = nil
		for i := 0; i+1 < len(path); i++ {
			f.Route = append(f.Route, flow.Link{From: path[i], To: path[i+1]})
		}
		if budgeted {
			for range f.Route {
				f.TxBudget = append(f.TxBudget, 1+rng.Intn(3))
			}
		}
	}
	return flows
}

// TestDelayAnalysisNotVacuous: the bound must also admit a decent share of
// workloads the scheduler can schedule — i.e. not reject everything.
func TestDelayAnalysisNotVacuous(t *testing.T) {
	g := graph.New(12)
	for u := 0; u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			if (u+v)%3 != 0 {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(42))
	flows, err := flow.Generate(rng, g, flow.GenConfig{
		NumFlows: 4, MinPeriodExp: 1, MaxPeriodExp: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		path := g.ShortestPathHop(f.Src, f.Dst)
		f.Route = nil
		for i := 0; i+1 < len(path); i++ {
			f.Route = append(f.Route, flow.Link{From: path[i], To: path[i+1]})
		}
	}
	bounds, err := DelayAnalysis(flows, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !AllSchedulable(bounds) {
		t.Errorf("light workload should be admitted: %+v", bounds)
	}
}

// TestDelayAnalysisSparseNodeIDs is a robustness guard: routes reach the
// analysis from clients through wsan.DelayBounds, and flow validation
// bounds no node ID. A set whose routes use IDs such as −7 and 1<<40 must
// get exactly the bounds of the same set renumbered 0..k, without
// panicking and without allocating more than the renumbered call.
func TestDelayAnalysisSparseNodeIDs(t *testing.T) {
	dense := randomDelaySet(rand.New(rand.NewSource(7)), 30)
	sparseID := []int{-7, 1 << 40, math.MinInt, math.MaxInt, -1 << 50, 3, 1<<62 + 5, -1}
	sparse := make([]*flow.Flow, len(dense))
	for i, f := range dense {
		c := f.Clone()
		for h, l := range c.Route {
			c.Route[h] = flow.Link{From: renumber(sparseID, l.From), To: renumber(sparseID, l.To)}
		}
		c.Src, c.Dst = c.Route[0].From, c.Route[len(c.Route)-1].To
		sparse[i] = c
	}
	want, err := DelayAnalysis(dense, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DelayAnalysis(sparse, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("sparse node IDs changed the bounds:\n got %+v\nwant %+v", got, want)
	}
	allocs := func(flows []*flow.Flow) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := DelayAnalysis(flows, 3, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
	if sparse, dense := allocs(sparse), allocs(dense); sparse > dense {
		t.Errorf("sparse IDs allocate %v times, renumbered set %v times", sparse, dense)
	}
}

// renumber maps dense node number v to the v-th sparse ID, or to a large
// negative ID past the end of the table.
func renumber(sparseID []int, v int) int {
	if v < len(sparseID) {
		return sparseID[v]
	}
	return -1<<45 - v*1_000_003
}

// TestDelayAnalysisAllocs pins the call's allocations to a small constant:
// a 20-flow and a 120-flow set allocate equally often, so nothing is
// allocated per flow, per hop or per fixed-point iteration.
func TestDelayAnalysisAllocs(t *testing.T) {
	allocs := func(numFlows int) float64 {
		flows := randomDelaySet(rand.New(rand.NewSource(int64(numFlows))), numFlows)
		return testing.AllocsPerRun(20, func() {
			if _, err := DelayAnalysis(flows, 4, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(20), allocs(120)
	if small != large || large > 3 {
		t.Errorf("allocations: %v at 20 flows, %v at 120, want the same constant ≤ 3", small, large)
	}
}

// TestNRLatencyWithinDelayBound checks the analysis against the schedule
// it claims to bound: for every flow DelayAnalysis admits, the worst
// latency NR actually schedules is at most its ResponseSlots. The sets are
// drawn as in TestDelayAnalysisSound, and every second one carries
// budgets. NR places flows in priority order and stops
// at the first deadline miss, so a set it cannot finish is checked on the
// flows placed before the miss; the missing flow must not be admitted.
func TestNRLatencyWithinDelayBound(t *testing.T) {
	seeds := int64(3000)
	if testing.Short() {
		seeds = 300
	}
	checked := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		flows := randomRoutedSet(t, rng, seed%2 == 1)
		if flows == nil {
			continue
		}
		m, attempts := 1+rng.Intn(4), 1+rng.Intn(2)
		bounds, err := DelayAnalysis(flows, m, attempts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := scheduler.Run(flows, scheduler.Config{
			Algorithm: scheduler.NR, NumChannels: m, Retransmit: attempts == 2,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		placed := len(flows)
		if !res.Schedulable {
			placed = slices.IndexFunc(flows, func(f *flow.Flow) bool { return f.ID == res.FailedFlow })
			if bounds[placed].Schedulable {
				t.Fatalf("seed %d: flow %d admitted with bound %d but NR missed its deadline",
					seed, res.FailedFlow, bounds[placed].ResponseSlots)
			}
		}
		lats, err := Latencies(flows[:placed], res.Schedule)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, l := range lats {
			if !bounds[i].Schedulable {
				continue
			}
			checked++
			if l.WorstSlots > bounds[i].ResponseSlots {
				t.Errorf("seed %d (m=%d attempts=%d): flow %d scheduled in %d slots, bound %d",
					seed, m, attempts, l.FlowID, l.WorstSlots, bounds[i].ResponseSlots)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no admitted flow was checked")
	}
	t.Logf("%d admitted flows within their bound", checked)
}
