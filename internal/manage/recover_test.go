package manage

import (
	"reflect"
	"testing"

	"wsan/internal/faults"
	"wsan/internal/flow"
	"wsan/internal/netsim"
	"wsan/internal/schedule"
	"wsan/internal/topology"
)

// diamondNetwork builds a 5-node testbed where flow 0 runs 0→1→4 but a
// disjoint detour 0→2→4 exists: the shape the reroute logic needs when node
// 1 crashes. Node 3 is an unused bystander. All good links are perfect and
// identical on every channel; everything else is far below the noise floor.
func diamondNetwork(t *testing.T) (*topology.Testbed, []*flow.Flow, *schedule.Schedule) {
	t.Helper()
	nodes := []topology.Node{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}, {ID: 4}}
	good := map[[2]int]bool{
		{0, 1}: true, {1, 4}: true,
		{0, 2}: true, {2, 4}: true,
	}
	gain := func(u, v, ch int) float64 {
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		if good[[2]int{a, b}] {
			return -50
		}
		return -200
	}
	tb, err := topology.Custom("diamond", nodes, gain, topology.DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := &flow.Flow{ID: 0, Src: 0, Dst: 4, Period: 20, Deadline: 20,
		Route: []flow.Link{{From: 0, To: 1}, {From: 1, To: 4}}}
	sched, err := schedule.New(20, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	slot := 0
	for h, l := range f.Route {
		for a := 0; a < 2; a++ {
			if err := sched.Place(schedule.Tx{
				FlowID: 0, Hop: h, Attempt: a, Link: l, Slot: slot,
			}); err != nil {
				t.Fatal(err)
			}
			slot++
		}
	}
	return tb, []*flow.Flow{f}, sched
}

// chaosScenario crashes the relay node 1 permanently and jams half of the
// in-use channels for the whole session.
func chaosScenario() *faults.Scenario {
	return &faults.Scenario{
		Name: "relay-crash-plus-burst",
		Seed: 21,
		Events: []faults.Event{
			{At: 0, Kind: faults.NodeCrash, Node: 1},
			{At: 0, Kind: faults.InterferenceStart, Channels: []int{0, 1, 2, 3}, PowerDBm: -20},
		},
	}
}

// TestLoopRecoversFromCrashAndBurst is the end-to-end recovery check: under
// a relay crash plus a 4-channel interference burst the loop must reroute
// the flow around the dead node, swap the jammed channels out of the hopping
// list, and end with every flow back above the PRR target.
func TestLoopRecoversFromCrashAndBurst(t *testing.T) {
	run := func() []Iteration {
		tb, flows, sched := diamondNetwork(t)
		iters, err := Loop(Config{Sim: netsim.Config{
			Testbed:           tb,
			Flows:             flows,
			Schedule:          sched,
			Channels:          topology.Channels(8),
			EpochSlots:        8_000,
			SampleWindowSlots: 400,
			Faults:            chaosScenario(),
			Seed:              13,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return iters
	}
	iters := run()
	if len(iters) < 2 {
		t.Fatalf("recovery needs multiple iterations, got %d: %+v", len(iters), iters)
	}
	first, last := iters[0], iters[len(iters)-1]
	if first.Health != Degraded || len(first.DegradedFlows) == 0 {
		t.Errorf("first iteration should observe the damage: %+v", first)
	}
	if got := first.SuspectNodes; len(got) != 1 || got[0] != 1 {
		t.Errorf("suspect nodes = %v, want [1]", got)
	}
	if first.Rerouted != 1 {
		t.Errorf("rerouted = %d, want the one broken flow", first.Rerouted)
	}
	if last.Health != Recovered {
		t.Errorf("last iteration health = %v, want Recovered: %+v", last.Health, iters)
	}
	if last.MinPDR < 0.9 {
		t.Errorf("final PDR = %v, want ≥ PRR target", last.MinPDR)
	}
	// The jammed channels must have left the hopping list along the way.
	blacklisted := 0
	for _, it := range iters {
		blacklisted += len(it.Blacklisted)
	}
	if blacklisted != 4 {
		t.Errorf("blacklisted %d channels across the session, want 4", blacklisted)
	}
	for _, ch := range last.Channels {
		for _, jammed := range []int{0, 1, 2, 3} {
			if ch == jammed {
				t.Errorf("jammed channel %d still in the hopping list %v", ch, last.Channels)
			}
		}
	}
	// Same scenario, same seed: the whole iteration trace replays
	// bit-identically.
	again := run()
	if !reflect.DeepEqual(iters, again) {
		t.Errorf("iteration traces diverged across identical runs:\n%+v\n%+v", iters, again)
	}
}

// lineNetwork is a 3-node line 0→1→2 with no detour.
func lineNetwork(t *testing.T) (*topology.Testbed, []*flow.Flow, *schedule.Schedule) {
	t.Helper()
	nodes := []topology.Node{{ID: 0}, {ID: 1}, {ID: 2}}
	gain := func(u, v, ch int) float64 {
		if (u == 0 && v == 1) || (u == 1 && v == 0) ||
			(u == 1 && v == 2) || (u == 2 && v == 1) {
			return -50
		}
		return -200
	}
	tb, err := topology.Custom("line", nodes, gain, topology.DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := &flow.Flow{ID: 0, Src: 0, Dst: 2, Period: 20, Deadline: 20,
		Route: []flow.Link{{From: 0, To: 1}, {From: 1, To: 2}}}
	sched, err := schedule.New(20, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	slot := 0
	for h, l := range f.Route {
		for a := 0; a < 2; a++ {
			if err := sched.Place(schedule.Tx{
				FlowID: 0, Hop: h, Attempt: a, Link: l, Slot: slot,
			}); err != nil {
				t.Fatal(err)
			}
			slot++
		}
	}
	return tb, []*flow.Flow{f}, sched
}

// TestLoopWaitsOutTransientCrash: the relay has no detour, so the first
// iteration can only report Degraded — but the fault timeline recovers the
// node, and the stall-retry policy keeps the loop alive long enough to see
// the network heal on its own.
func TestLoopWaitsOutTransientCrash(t *testing.T) {
	tb, flows, sched := lineNetwork(t)
	iters, err := Loop(Config{Sim: netsim.Config{
		Testbed:           tb,
		Flows:             flows,
		Schedule:          sched,
		Channels:          topology.Channels(4),
		EpochSlots:        2_000,
		SampleWindowSlots: 200,
		Faults: &faults.Scenario{Events: []faults.Event{
			{At: 0, Kind: faults.NodeCrash, Node: 1},
			{At: 2_000, Kind: faults.NodeRecover, Node: 1},
		}},
		Seed: 5,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != 2 {
		t.Fatalf("want 2 iterations (degraded, recovered), got %+v", iters)
	}
	if iters[0].Health != Degraded || iters[0].Rerouted != 0 {
		t.Errorf("first iteration: %+v, want degraded and un-reroutable", iters[0])
	}
	if got := iters[0].SuspectNodes; len(got) != 1 || got[0] != 1 {
		t.Errorf("suspect nodes = %v, want [1]", got)
	}
	if iters[1].Health != Recovered || iters[1].MinPDR < 0.9 {
		t.Errorf("second iteration should see the node back: %+v", iters[1])
	}
}

// TestLoopGivesUpAfterBoundedStalls: a crashed source is unrecoverable (the
// endpoint itself is gone), so under a fault scenario the loop must run
// exactly three futile iterations, report Degraded throughout, and stop.
func TestLoopGivesUpAfterBoundedStalls(t *testing.T) {
	tb, flows, sched := lineNetwork(t)
	iters, err := Loop(Config{
		Sim: netsim.Config{
			Testbed:           tb,
			Flows:             flows,
			Schedule:          sched,
			Channels:          topology.Channels(4),
			EpochSlots:        2_000,
			SampleWindowSlots: 200,
			Faults: &faults.Scenario{Events: []faults.Event{
				{At: 0, Kind: faults.NodeCrash, Node: 0},
			}},
			Seed: 5,
		},
		MaxIterations: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != 3 {
		t.Fatalf("want exactly 3 stalled iterations, got %d: %+v", len(iters), iters)
	}
	for i, it := range iters {
		if it.Health != Degraded {
			t.Errorf("iteration %d health = %v, want Degraded", i, it.Health)
		}
		if len(it.DegradedFlows) != 1 || it.DegradedFlows[0] != 0 {
			t.Errorf("iteration %d degraded flows = %v, want [0]", i, it.DegradedFlows)
		}
	}
}

func TestSuspectCrashedNodes(t *testing.T) {
	mk := func(att, succ int) []netsim.EpochStats {
		return []netsim.EpochStats{{CF: netsim.LinkCondStats{Attempts: att, Successes: succ}}}
	}
	res := &netsim.Result{LinkEpochs: map[flow.Link][]netsim.EpochStats{
		{From: 0, To: 1}: mk(100, 0),  // all dead: 1 is suspect
		{From: 2, To: 3}: mk(100, 40), // lossy but alive
		{From: 4, To: 5}: mk(5, 0),    // dead but below the evidence bar
	}}
	if got := suspectCrashedNodes(res); len(got) != 1 || got[0] != 1 {
		t.Errorf("suspects = %v, want [1]", got)
	}
	// One success on any link touching the node clears the suspicion.
	res.LinkEpochs[flow.Link{From: 1, To: 6}] = mk(10, 1)
	if got := suspectCrashedNodes(res); len(got) != 0 {
		t.Errorf("suspects = %v, want none after an outbound success", got)
	}
}

func TestBlacklistChannels(t *testing.T) {
	res := &netsim.Result{}
	channels := []int{0, 1, 2, 3}
	for _, ch := range channels {
		res.ChannelAttempts[ch] = 100
	}
	res.ChannelFailures[2] = 95 // jammed
	res.ChannelFailures[0] = 2  // healthy noise
	used := map[int]bool{0: true, 1: true, 2: true, 3: true}
	out, removed := blacklistChannels(channels, res, 50, 0.5, used)
	if len(removed) != 1 || removed[0] != 2 {
		t.Fatalf("removed = %v, want [2]", removed)
	}
	want := []int{0, 1, 4, 3} // 4 is the lowest never-used replacement
	if !reflect.DeepEqual(out, want) {
		t.Errorf("channels = %v, want %v", out, want)
	}
	if !used[4] {
		t.Error("replacement channel must be marked used")
	}

	// Uniform failure (a crash, not interference) must not blacklist: there
	// is no clean reference channel to contrast against.
	uniform := &netsim.Result{}
	for _, ch := range channels {
		uniform.ChannelAttempts[ch] = 100
		uniform.ChannelFailures[ch] = 90
	}
	_, removed = blacklistChannels(channels, uniform,
		50, 0.5, map[int]bool{0: true, 1: true, 2: true, 3: true})
	if len(removed) != 0 {
		t.Errorf("uniform failure blacklisted %v, want nothing", removed)
	}
}

// TestRerouteAroundCarriesShedBudget is the budget-carryover regression: a
// flow whose retries were shed to the all-ones floor loses its relay to a
// crash, and the only detour is one hop longer. Before the fix the stale
// two-hop budget failed flow validation inside the reroute delta and the
// whole recovery pass errored out; now the reroute must succeed with the
// shed concession intact (all ones over the new hop count) and the flow's
// record updated to match what was placed.
func TestRerouteAroundCarriesShedBudget(t *testing.T) {
	// 0→1→5 is the scheduled 2-hop route; 0→2→3→5 the only detour.
	nodes := []topology.Node{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}, {ID: 4}, {ID: 5}}
	good := map[[2]int]bool{
		{0, 1}: true, {1, 5}: true,
		{0, 2}: true, {2, 3}: true, {3, 5}: true,
	}
	gain := func(u, v, ch int) float64 {
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		if good[[2]int{a, b}] {
			return -50
		}
		return -200
	}
	tb, err := topology.Custom("budget-detour", nodes, gain, topology.DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := &flow.Flow{ID: 0, Src: 0, Dst: 5, Period: 20, Deadline: 20,
		TargetPDR: 0.9,
		TxBudget:  []int{1, 1}, // shed to the floor by an earlier rebudget pass
		Route:     []flow.Link{{From: 0, To: 1}, {From: 1, To: 5}}}
	sched, err := schedule.New(20, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	for h, l := range f.Route {
		if err := sched.Place(schedule.Tx{FlowID: 0, Hop: h, Link: l, Slot: h}); err != nil {
			t.Fatal(err)
		}
	}
	flows := []*flow.Flow{f}
	rerouted, err := rerouteAround(tb, topology.Channels(8), 0.9, flows, sched, []int{1}, nil)
	if err != nil {
		t.Fatalf("rerouteAround: %v", err)
	}
	if rerouted != 1 {
		t.Fatalf("rerouted = %d, want 1", rerouted)
	}
	wantRoute := []flow.Link{{From: 0, To: 2}, {From: 2, To: 3}, {From: 3, To: 5}}
	if !reflect.DeepEqual(f.Route, wantRoute) {
		t.Fatalf("route = %v, want %v", f.Route, wantRoute)
	}
	if want := []int{1, 1, 1}; !reflect.DeepEqual(f.TxBudget, want) {
		t.Fatalf("budget = %v, want shed floor %v carried onto the detour", f.TxBudget, want)
	}
	// What was placed matches the record: one attempt per detour hop.
	got := 0
	for _, tx := range sched.Txs() {
		if tx.FlowID == f.ID {
			got++
		}
	}
	if got != len(wantRoute) {
		t.Fatalf("placed %d transmissions, want %d", got, len(wantRoute))
	}
}
