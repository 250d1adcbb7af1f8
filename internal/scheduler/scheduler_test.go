package scheduler

import (
	"math/rand"
	"sort"
	"testing"

	"wsan/internal/flow"
	"wsan/internal/graph"
	"wsan/internal/schedule"
)

// lineGraph returns a path graph and its hop matrix.
func lineGraph(n int) (*graph.Graph, *graph.HopMatrix) {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			panic(err)
		}
	}
	return g, g.AllPairsHop()
}

// threeIslands returns a graph of three disjoint 3-node paths (0-1-2, 3-4-5,
// 6-7-8): flows on different islands can always reuse a channel.
func threeIslands() (*graph.Graph, *graph.HopMatrix) {
	g := graph.New(9)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {6, 7}, {7, 8}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	return g, g.AllPairsHop()
}

// routeThrough sets a contiguous route along the given nodes.
func routeThrough(f *flow.Flow, nodes ...int) {
	f.Route = nil
	for i := 0; i+1 < len(nodes); i++ {
		f.Route = append(f.Route, flow.Link{From: nodes[i], To: nodes[i+1]})
	}
}

// checkTiming verifies release, deadline, and sequencing invariants for all
// transmissions of a schedulable result, and that every instance holds
// exactly its budgeted transmissions, each on the flow's route.
func checkTiming(t *testing.T, flows []*flow.Flow, res *Result, attempts int) {
	t.Helper()
	byID := make(map[int]*flow.Flow, len(flows))
	for _, f := range flows {
		byID[f.ID] = f
	}
	type key struct{ flowID, inst int }
	groups := make(map[key][]schedule.Tx)
	for _, tx := range res.Schedule.Txs() {
		groups[key{tx.FlowID, tx.Instance}] = append(groups[key{tx.FlowID, tx.Instance}], tx)
	}
	for k, txs := range groups {
		f := byID[k.flowID]
		if f == nil {
			t.Fatalf("unknown flow %d in schedule", k.flowID)
		}
		want := f.TotalAttempts(attempts)
		if len(txs) != want {
			t.Fatalf("flow %d inst %d: %d transmissions, want %d", k.flowID, k.inst, len(txs), want)
		}
		sort.Slice(txs, func(i, j int) bool {
			if txs[i].Hop != txs[j].Hop {
				return txs[i].Hop < txs[j].Hop
			}
			return txs[i].Attempt < txs[j].Attempt
		})
		release := f.Release(k.inst)
		deadline := release + f.Deadline - 1
		prev := release - 1
		for _, tx := range txs {
			if tx.Hop >= len(f.Route) || tx.Link != f.Route[tx.Hop] {
				t.Fatalf("flow %d inst %d: tx %+v is off the flow's route", k.flowID, k.inst, tx)
			}
			if tx.Slot <= prev {
				t.Fatalf("flow %d inst %d: slot %d not after predecessor %d", k.flowID, k.inst, tx.Slot, prev)
			}
			if tx.Slot > deadline {
				t.Fatalf("flow %d inst %d: slot %d past deadline %d", k.flowID, k.inst, tx.Slot, deadline)
			}
			prev = tx.Slot
		}
	}
	// Every instance of every flow must be present.
	hyper, err := flow.Hyperperiod(flows)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		for inst := 0; inst < hyper/f.Period; inst++ {
			if _, ok := groups[key{f.ID, inst}]; !ok {
				t.Fatalf("flow %d instance %d missing from schedule", f.ID, inst)
			}
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	if NR.String() != "NR" || RA.String() != "RA" || RC.String() != "RC" {
		t.Error("Algorithm.String wrong")
	}
}

func TestRunValidation(t *testing.T) {
	_, hop := lineGraph(5)
	f := &flow.Flow{ID: 0, Src: 0, Dst: 2, Period: 100, Deadline: 50}
	routeThrough(f, 0, 1, 2)
	cases := []struct {
		name  string
		flows []*flow.Flow
		cfg   Config
	}{
		{"empty flows", nil, Config{Algorithm: NR, NumChannels: 2}},
		{"zero channels", []*flow.Flow{f}, Config{Algorithm: NR}},
		{"RA without hop matrix", []*flow.Flow{f}, Config{Algorithm: RA, NumChannels: 2, RhoT: 2}},
		{"RC bad rhoT", []*flow.Flow{f}, Config{Algorithm: RC, NumChannels: 2, RhoT: 0, HopGR: hop}},
		{"unknown algorithm", []*flow.Flow{f}, Config{Algorithm: Algorithm(9), NumChannels: 2}},
	}
	for _, tc := range cases {
		if _, err := Run(tc.flows, tc.cfg); err == nil {
			t.Errorf("%s: Run should fail", tc.name)
		}
	}
	noRoute := &flow.Flow{ID: 0, Src: 0, Dst: 2, Period: 100, Deadline: 50}
	if _, err := Run([]*flow.Flow{noRoute}, Config{Algorithm: NR, NumChannels: 2}); err == nil {
		t.Error("flow without route should fail")
	}
}

func TestNRSimpleFlow(t *testing.T) {
	f := &flow.Flow{ID: 0, Src: 0, Dst: 3, Period: 100, Deadline: 100}
	routeThrough(f, 0, 1, 2, 3)
	res, err := Run([]*flow.Flow{f}, Config{Algorithm: NR, NumChannels: 2, Retransmit: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Fatal("single flow should be schedulable")
	}
	if got := res.Schedule.Len(); got != 6 {
		t.Errorf("transmissions = %d, want 6 (3 hops × 2 attempts)", got)
	}
	if err := res.Schedule.Validate(nil, 0); err != nil {
		t.Errorf("NR schedule must have no reuse: %v", err)
	}
	checkTiming(t, []*flow.Flow{f}, res, 2)
	// Earliest-slot policy: sequential slots 0..5.
	for i, tx := range res.Schedule.Txs() {
		if tx.Slot != i {
			t.Errorf("tx %d at slot %d, want %d", i, tx.Slot, i)
		}
	}
}

func TestNRDeadlineMiss(t *testing.T) {
	f := &flow.Flow{ID: 0, Src: 0, Dst: 3, Period: 100, Deadline: 4}
	routeThrough(f, 0, 1, 2, 3)
	res, err := Run([]*flow.Flow{f}, Config{Algorithm: NR, NumChannels: 2, Retransmit: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedulable {
		t.Error("6 transmissions cannot fit in 4 slots")
	}
	if res.FailedFlow != 0 {
		t.Errorf("FailedFlow = %d, want 0", res.FailedFlow)
	}
}

func TestNRChannelLimit(t *testing.T) {
	// Three disjoint single-hop flows, one channel, tight deadline: only one
	// transmission per slot fits, so all three need 3 slots.
	flows := make([]*flow.Flow, 3)
	for i := range flows {
		flows[i] = &flow.Flow{ID: i, Src: 2 * i, Dst: 2*i + 1, Period: 100, Deadline: 2}
		routeThrough(flows[i], 2*i, 2*i+1)
	}
	res, err := Run(flows, Config{Algorithm: NR, NumChannels: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedulable {
		t.Error("3 txs on 1 channel cannot meet deadline 2")
	}
	// With 3 channels it fits in a single slot each.
	res, err = Run(flows, Config{Algorithm: NR, NumChannels: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Error("3 channels should suffice")
	}
}

// TestRCSchedulesWhatNRCannot is the paper's headline property: channel
// reuse rescues deadlines that NR misses.
func TestRCSchedulesWhatNRCannot(t *testing.T) {
	_, hop := threeIslands()
	mk := func() []*flow.Flow {
		flows := make([]*flow.Flow, 3)
		for i := range flows {
			flows[i] = &flow.Flow{ID: i, Src: 3 * i, Dst: 3*i + 2, Period: 100, Deadline: 5}
			routeThrough(flows[i], 3*i, 3*i+1, 3*i+2)
		}
		return flows
	}
	nr, err := Run(mk(), Config{Algorithm: NR, NumChannels: 1})
	if err != nil {
		t.Fatal(err)
	}
	if nr.Schedulable {
		t.Fatal("NR should fail: 6 transmissions, 1 channel, deadline 5")
	}
	rc, err := Run(mk(), Config{Algorithm: RC, NumChannels: 1, RhoT: 2, HopGR: hop})
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Schedulable {
		t.Fatal("RC should succeed by reusing the channel across islands")
	}
	if err := rc.Schedule.Validate(hop, 2); err != nil {
		t.Errorf("RC schedule violates constraints: %v", err)
	}
	checkTiming(t, mk(), rc, 1)
	hist := rc.Schedule.TxPerChannelHist()
	if hist[2] == 0 && hist[3] == 0 {
		t.Errorf("RC must have reused the channel: hist=%v", hist)
	}
}

// TestRCNoReuseWhenUnnecessary: with light load, RC must behave exactly like
// NR and introduce zero reuse.
func TestRCNoReuseWhenUnnecessary(t *testing.T) {
	_, hop := threeIslands()
	flows := make([]*flow.Flow, 3)
	for i := range flows {
		flows[i] = &flow.Flow{ID: i, Src: 3 * i, Dst: 3*i + 2, Period: 100, Deadline: 100}
		routeThrough(flows[i], 3*i, 3*i+1, 3*i+2)
	}
	rc, err := Run(flows, Config{Algorithm: RC, NumChannels: 4, RhoT: 2, HopGR: hop, Retransmit: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Schedulable {
		t.Fatal("light load should be schedulable")
	}
	hist := rc.Schedule.TxPerChannelHist()
	for k := range hist {
		if k > 1 {
			t.Errorf("RC introduced reuse under light load: hist=%v", hist)
		}
	}
	if err := rc.Schedule.Validate(nil, 0); err != nil {
		t.Errorf("no-reuse schedule should validate with reuse disabled: %v", err)
	}
}

func TestRAPacksAggressively(t *testing.T) {
	_, hop := threeIslands()
	flows := make([]*flow.Flow, 3)
	for i := range flows {
		flows[i] = &flow.Flow{ID: i, Src: 3 * i, Dst: 3*i + 2, Period: 100, Deadline: 100}
		routeThrough(flows[i], 3*i, 3*i+1, 3*i+2)
	}
	ra, err := Run(flows, Config{Algorithm: RA, NumChannels: 4, RhoT: 2, HopGR: hop})
	if err != nil {
		t.Fatal(err)
	}
	if !ra.Schedulable {
		t.Fatal("should be schedulable")
	}
	// RA reuses even though deadlines are loose: the three islands' first
	// hops all land in slot 0 on the same offset.
	hist := ra.Schedule.TxPerChannelHist()
	if hist[3] == 0 {
		t.Errorf("RA should stack all three islands on one channel: hist=%v", hist)
	}
	if err := ra.Schedule.Validate(hop, 2); err != nil {
		t.Errorf("RA schedule violates constraints: %v", err)
	}
}

func TestRAHopConstraintBlocksNearbyReuse(t *testing.T) {
	// Line 0-1-2-3: flows 0→1 and 2→3. hop(0,3)=3 ≥ 2 but hop(2,1)=1 < 2:
	// reuse must be rejected; with one channel the flows serialize.
	_, hop := lineGraph(4)
	flows := []*flow.Flow{
		{ID: 0, Src: 0, Dst: 1, Period: 100, Deadline: 100},
		{ID: 1, Src: 2, Dst: 3, Period: 100, Deadline: 100},
	}
	routeThrough(flows[0], 0, 1)
	routeThrough(flows[1], 2, 3)
	ra, err := Run(flows, Config{Algorithm: RA, NumChannels: 1, RhoT: 2, HopGR: hop})
	if err != nil {
		t.Fatal(err)
	}
	if !ra.Schedulable {
		t.Fatal("should be schedulable sequentially")
	}
	hist := ra.Schedule.TxPerChannelHist()
	if hist[1] != 2 || len(hist) != 1 {
		t.Errorf("adjacent transmissions must not share the channel: hist=%v", hist)
	}
}

func TestMultipleInstances(t *testing.T) {
	// Period 10 within hyperperiod 20 (two flows): the short flow gets two
	// releases.
	flows := []*flow.Flow{
		{ID: 0, Src: 0, Dst: 1, Period: 10, Deadline: 10},
		{ID: 1, Src: 2, Dst: 3, Period: 20, Deadline: 20},
	}
	routeThrough(flows[0], 0, 1)
	routeThrough(flows[1], 2, 3)
	res, err := Run(flows, Config{Algorithm: NR, NumChannels: 2, Retransmit: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Fatal("should be schedulable")
	}
	if res.Schedule.NumSlots() != 20 {
		t.Errorf("hyperperiod = %d, want 20", res.Schedule.NumSlots())
	}
	// Flow 0: 2 instances × 1 hop × 2 attempts; flow 1: 1 × 1 × 2.
	if got := res.Schedule.Len(); got != 6 {
		t.Errorf("transmissions = %d, want 6", got)
	}
	checkTiming(t, flows, res, 2)
	// Second release must start at or after slot 10.
	for _, tx := range res.Schedule.Txs() {
		if tx.FlowID == 0 && tx.Instance == 1 && tx.Slot < 10 {
			t.Errorf("instance 1 scheduled before its release: slot %d", tx.Slot)
		}
	}
}

func TestDeterminism(t *testing.T) {
	gc, hop := lineGraph(10)
	rng := rand.New(rand.NewSource(5))
	mkFlows := func() []*flow.Flow {
		r := rand.New(rand.NewSource(99))
		fs, err := flow.Generate(r, gc, flow.GenConfig{NumFlows: 6, MinPeriodExp: 0, MaxPeriodExp: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			path := gc.ShortestPathHop(f.Src, f.Dst)
			routeThrough(f, path...)
		}
		return fs
	}
	_ = rng
	for _, alg := range []Algorithm{NR, RA, RC} {
		cfg := Config{Algorithm: alg, NumChannels: 2, RhoT: 2, HopGR: hop, Retransmit: true}
		a, err := Run(mkFlows(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(mkFlows(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Schedulable != b.Schedulable || a.Schedule.Len() != b.Schedule.Len() {
			t.Fatalf("%v: nondeterministic outcome", alg)
		}
		at, bt := a.Schedule.Txs(), b.Schedule.Txs()
		for i := range at {
			if at[i] != bt[i] {
				t.Fatalf("%v: tx %d differs: %+v vs %+v", alg, i, at[i], bt[i])
			}
		}
	}
}

// TestRandomizedInvariants schedules random workloads on random topologies
// with all three algorithms and checks every structural invariant on the
// successful ones.
func TestRandomizedInvariants(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(12)
		g := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.25 {
					if err := g.AddEdge(u, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		comp := g.LargestComponent()
		if len(comp) < 4 {
			continue
		}
		hop := g.AllPairsHop()
		flows, err := flow.Generate(rng, g, flow.GenConfig{
			NumFlows: 2 + rng.Intn(6), MinPeriodExp: -1, MaxPeriodExp: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		for _, f := range flows {
			path := g.ShortestPathHop(f.Src, f.Dst)
			if path == nil {
				ok = false
				break
			}
			routeThrough(f, path...)
		}
		if !ok {
			continue
		}
		for _, alg := range []Algorithm{NR, RA, RC} {
			cfg := Config{Algorithm: alg, NumChannels: 1 + rng.Intn(4), RhoT: 2, HopGR: hop, Retransmit: seed%2 == 0}
			res, err := Run(cloneFlows(flows), cfg)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, alg, err)
			}
			if !res.Schedulable {
				continue
			}
			rhoT := 2
			if alg == NR {
				rhoT = 0
			}
			if err := res.Schedule.Validate(hop, rhoT); err != nil {
				t.Fatalf("seed %d %v: %v", seed, alg, err)
			}
			checkTiming(t, flows, res, cfg.attempts())
		}
	}
}

func cloneFlows(flows []*flow.Flow) []*flow.Flow {
	out := make([]*flow.Flow, len(flows))
	for i, f := range flows {
		out[i] = f.Clone()
	}
	return out
}

func TestPhasedFlowScheduling(t *testing.T) {
	// A phased flow's transmissions must land in [phase, phase+deadline).
	f := &flow.Flow{ID: 0, Src: 0, Dst: 2, Period: 100, Deadline: 40, Phase: 30}
	routeThrough(f, 0, 1, 2)
	res, err := Run([]*flow.Flow{f}, Config{Algorithm: NR, NumChannels: 2, Retransmit: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Fatal("phased flow should be schedulable")
	}
	for _, tx := range res.Schedule.Txs() {
		if tx.Slot < 30 || tx.Slot > 69 {
			t.Errorf("tx at slot %d outside [30, 69]", tx.Slot)
		}
	}
}

func TestPhasedFlowsSpreadLoad(t *testing.T) {
	// Three disjoint single-hop flows on 1 channel with deadline 2 fail when
	// synchronized (slot-0 herd) but succeed when staggered.
	mk := func(phases [3]int) []*flow.Flow {
		var flows []*flow.Flow
		for i := 0; i < 3; i++ {
			f := &flow.Flow{ID: i, Src: 2 * i, Dst: 2*i + 1,
				Period: 12, Deadline: 2, Phase: phases[i]}
			routeThrough(f, 2*i, 2*i+1)
			flows = append(flows, f)
		}
		return flows
	}
	cfg := Config{Algorithm: NR, NumChannels: 1}
	sync, err := Run(mk([3]int{0, 0, 0}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sync.Schedulable {
		t.Error("synchronized releases should miss deadlines")
	}
	staggered, err := Run(mk([3]int{0, 4, 8}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !staggered.Schedulable {
		t.Error("staggered releases should be schedulable")
	}
}

func TestRCFallsBackWhenReuseImpossible(t *testing.T) {
	// G_R is a single edge: λ_R = 1 < ρ_t = 2, so RC can never introduce
	// reuse and must behave exactly like NR — including the deadline miss.
	g := graph.New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	hop := g.AllPairsHop()
	f := &flow.Flow{ID: 0, Src: 0, Dst: 1, Period: 100, Deadline: 100}
	routeThrough(f, 0, 1)
	res, err := Run([]*flow.Flow{f}, Config{
		Algorithm: RC, NumChannels: 1, RhoT: 2, HopGR: hop, Retransmit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Fatal("single flow should schedule")
	}
	if res.LambdaR != 1 {
		t.Errorf("λ_R = %d, want 1", res.LambdaR)
	}
	hist := res.Schedule.TxPerChannelHist()
	if hist[1] != 2 || len(hist) != 1 {
		t.Errorf("reuse impossible but hist = %v", hist)
	}
	// Overload the single channel beyond rescue: RC must report a miss
	// rather than force reuse below ρ_t.
	flows := []*flow.Flow{f, {ID: 1, Src: 2, Dst: 3, Period: 100, Deadline: 2}}
	routeThrough(flows[1], 2, 3)
	flows[0].Deadline = 2
	res, err = Run(flows, Config{
		Algorithm: RC, NumChannels: 1, RhoT: 2, HopGR: hop, Retransmit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedulable {
		t.Error("reuse below ρ_t must not be forced")
	}
}
