package repair

import (
	"math/rand"
	"testing"

	"wsan/internal/analysis"
	"wsan/internal/flow"
	"wsan/internal/routing"
	"wsan/internal/schedule"
	"wsan/internal/scheduler"
	"wsan/internal/topology"
)

func TestCompactMovesLatePlacement(t *testing.T) {
	// One flow artificially placed late: compaction pulls it to slot 0/1.
	f := &flow.Flow{ID: 0, Src: 0, Dst: 2, Period: 50, Deadline: 50,
		Route: []flow.Link{{From: 0, To: 1}, {From: 1, To: 2}}}
	s, err := schedule.New(50, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	placements := []schedule.Tx{
		{FlowID: 0, Hop: 0, Link: f.Route[0], Slot: 20, Offset: 0},
		{FlowID: 0, Hop: 1, Link: f.Route[1], Slot: 30, Offset: 1},
	}
	for _, p := range placements {
		if err := s.Place(p); err != nil {
			t.Fatal(err)
		}
	}
	moved, err := Compact(s, []*flow.Flow{f})
	if err != nil {
		t.Fatal(err)
	}
	if moved != 2 {
		t.Fatalf("moved = %d, want 2", moved)
	}
	lats, err := analysis.Latencies([]*flow.Flow{f}, s)
	if err != nil {
		t.Fatal(err)
	}
	if lats[0].WorstSlots != 2 {
		t.Errorf("latency after compaction = %d slots, want 2", lats[0].WorstSlots)
	}
	if err := s.Validate(nil, 0); err != nil {
		t.Errorf("compacted schedule invalid: %v", err)
	}
}

func TestCompactRespectsPhaseAndOrder(t *testing.T) {
	f := &flow.Flow{ID: 0, Src: 0, Dst: 2, Period: 100, Deadline: 40, Phase: 25,
		Route: []flow.Link{{From: 0, To: 1}, {From: 1, To: 2}}}
	s, err := schedule.New(100, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	placements := []schedule.Tx{
		{FlowID: 0, Hop: 0, Link: f.Route[0], Slot: 40, Offset: 0},
		{FlowID: 0, Hop: 1, Link: f.Route[1], Slot: 60, Offset: 0},
	}
	for _, p := range placements {
		if err := s.Place(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Compact(s, []*flow.Flow{f}); err != nil {
		t.Fatal(err)
	}
	var hop0, hop1 int
	for _, tx := range s.Txs() {
		if tx.Hop == 0 {
			hop0 = tx.Slot
		} else {
			hop1 = tx.Slot
		}
	}
	if hop0 < 25 {
		t.Errorf("hop 0 moved before the release phase: slot %d", hop0)
	}
	if hop1 <= hop0 {
		t.Errorf("route order broken: hop1 at %d, hop0 at %d", hop1, hop0)
	}
}

// TestCompactEndToEnd repairs a real RA schedule, retires its two
// highest-priority flows to open early exclusive cells, compacts it, and
// checks that every invariant holds, no new channel sharing appears, and
// latency never worsens.
func TestCompactEndToEnd(t *testing.T) {
	tb, err := topology.WUSTL(1)
	if err != nil {
		t.Fatal(err)
	}
	chs := topology.Channels(4)
	gc, err := tb.CommGraph(chs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := tb.ReuseGraph(chs)
	if err != nil {
		t.Fatal(err)
	}
	hop := gr.AllPairsHop()
	rng := rand.New(rand.NewSource(2))
	flows, err := flow.Generate(rng, gc, flow.GenConfig{
		NumFlows: 40, MinPeriodExp: 0, MaxPeriodExp: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := routing.Assign(flows, gc, routing.Config{Traffic: routing.PeerToPeer}); err != nil {
		t.Fatal(err)
	}
	res, err := scheduler.Run(flows, scheduler.Config{
		Algorithm: scheduler.RA, NumChannels: 4, RhoT: 2, HopGR: hop, Retransmit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Skip("workload unschedulable with this seed")
	}
	sched := res.Schedule
	// Repair everything reused, fragmenting the schedule.
	var degraded []flow.Link
	for l := range sched.ReusedLinks() {
		degraded = append(degraded, flow.Link{From: l[0], To: l[1]})
	}
	if _, err := Reschedule(sched, flows, degraded); err != nil {
		t.Fatal(err)
	}
	for _, f := range flows[:2] {
		if _, err := scheduler.RemoveFlowDelta(sched, f.ID, nil); err != nil {
			t.Fatal(err)
		}
	}
	flows = flows[2:]
	shared := sched.TxPerChannelHist()
	before, err := analysis.Latencies(flows, sched)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := Compact(sched, flows)
	if err != nil {
		t.Fatal(err)
	}
	after, err := analysis.Latencies(flows, sched)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(hop, 2); err != nil {
		t.Fatalf("compacted schedule invalid: %v", err)
	}
	checkFlows(t, flows, sched, -1)
	for k, n := range sched.TxPerChannelHist() {
		if k > 1 && n > shared[k] {
			t.Errorf("compaction created sharing: %d cells hold %d transmissions, %d before", n, k, shared[k])
		}
	}
	if moved == 0 {
		t.Fatal("nothing moved into the freed cells")
	}
	improved := 0
	for i := range after {
		if after[i].WorstSlots > before[i].WorstSlots {
			t.Errorf("flow %d latency worsened: %d → %d slots",
				after[i].FlowID, before[i].WorstSlots, after[i].WorstSlots)
		}
		if after[i].WorstSlots < before[i].WorstSlots {
			improved++
		}
	}
	t.Logf("moved %d transmissions, improved worst latency of %d/%d flows",
		moved, improved, len(flows))
}

func TestCompactValidation(t *testing.T) {
	if _, err := Compact(nil, nil); err == nil {
		t.Error("nil schedule should fail")
	}
	s, err := schedule.New(10, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Place(schedule.Tx{FlowID: 7, Link: flow.Link{From: 0, To: 1}, Slot: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compact(s, nil); err == nil {
		t.Error("unknown flow should fail")
	}
}
