package wsan_test

import (
	"bytes"
	"reflect"
	"testing"

	"wsan"
	"wsan/internal/schedule"
)

func testNetwork(t *testing.T) (*wsan.Testbed, *wsan.Network) {
	t.Helper()
	tb, err := wsan.GenerateWUSTL(1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := wsan.NewNetwork(tb, 4)
	if err != nil {
		t.Fatal(err)
	}
	return tb, net
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := wsan.NewNetwork(nil, 4); err == nil {
		t.Error("nil testbed should fail")
	}
	tb, err := wsan.GenerateWUSTL(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wsan.NewNetwork(tb, 0); err == nil {
		t.Error("zero channels should fail")
	}
	if _, err := wsan.NewNetworkOnChannels(tb, []int{99}); err == nil {
		t.Error("bad channel index should fail")
	}
}

func TestNetworkAccessors(t *testing.T) {
	tb, net := testNetwork(t)
	if net.Testbed() != tb {
		t.Error("Testbed() should return the wrapped testbed")
	}
	chs := net.Channels()
	if len(chs) != 4 {
		t.Fatalf("Channels() = %v, want 4 entries", chs)
	}
	chs[0] = 99 // the returned slice must be a copy
	if net.Channels()[0] == 99 {
		t.Error("Channels() leaked internal state")
	}
	if got := len(net.AccessPoints()); got != 2 {
		t.Errorf("AccessPoints() returned %d, want 2", got)
	}
	if net.ReuseDiameter() < 2 {
		t.Errorf("ReuseDiameter = %d, want ≥ 2", net.ReuseDiameter())
	}
	if net.CommEdges() == 0 {
		t.Error("CommEdges = 0")
	}
}

func TestNetworkOptions(t *testing.T) {
	tb, err := wsan.GenerateWUSTL(1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := wsan.NewNetwork(tb, 4, wsan.WithAccessPoints(3), wsan.WithPRRThreshold(0.8))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(net.AccessPoints()); got != 3 {
		t.Errorf("got %d APs, want 3", got)
	}
	strict, err := wsan.NewNetwork(tb, 4, wsan.WithPRRThreshold(0.99))
	if err != nil {
		t.Fatal(err)
	}
	if strict.CommEdges() >= net.CommEdges() {
		t.Errorf("stricter PRR threshold should remove links: %d >= %d",
			strict.CommEdges(), net.CommEdges())
	}
}

func TestFullPipeline(t *testing.T) {
	_, net := testNetwork(t)
	flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows:     20,
		MinPeriodExp: 0,
		MaxPeriodExp: 1,
		Traffic:      wsan.PeerToPeer,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 20 {
		t.Fatalf("got %d flows", len(flows))
	}
	for _, alg := range []wsan.Algorithm{wsan.NR, wsan.RA, wsan.RC} {
		res, err := net.Schedule(flows, alg, wsan.ScheduleConfig{})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !res.Schedulable {
			t.Fatalf("%v: light workload should be schedulable", alg)
		}
		sim, err := wsan.Simulate(net.NewSimConfig(flows, res, 20, 5))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		fn, err := wsan.Summary(sim.PDRs())
		if err != nil {
			t.Fatal(err)
		}
		if fn.Median < 0.95 {
			t.Errorf("%v: median PDR %v too low on a clean network", alg, fn.Median)
		}
	}
}

func TestCentralizedPipeline(t *testing.T) {
	_, net := testNetwork(t)
	flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows:     10,
		MinPeriodExp: 1,
		MaxPeriodExp: 2,
		Traffic:      wsan.Centralized,
		Seed:         4,
	})
	if err != nil {
		t.Fatal(err)
	}
	aps := net.AccessPoints()
	for _, f := range flows {
		throughAP := false
		for _, l := range f.Route {
			for _, ap := range aps {
				if l.To == ap || l.From == ap {
					throughAP = true
				}
			}
		}
		if !throughAP {
			t.Errorf("centralized flow %d does not pass an access point: %v", f.ID, f.Route)
		}
	}
}

func TestDetectionPipeline(t *testing.T) {
	_, net := testNetwork(t)
	flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows:     40,
		MinPeriodExp: 0,
		MaxPeriodExp: 0,
		Traffic:      wsan.PeerToPeer,
		Seed:         6,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Schedule(flows, wsan.RA, wsan.ScheduleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Skip("workload not schedulable with this seed")
	}
	cfg := net.NewSimConfig(flows, res, 200, 7)
	cfg.EpochSlots = 10_000
	cfg.SampleWindowSlots = 1_000
	cfg.ProbeEverySlots = 200
	sim, err := wsan.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reports := wsan.DetectDegradation(sim, wsan.DefaultDetectionConfig())
	// The schedule has reuse links, so there must be reports, and they must
	// only cover reuse-condition traffic.
	if len(res.Schedule.ReusedLinks()) > 0 && len(reports) == 0 {
		t.Error("expected detection reports for a reused schedule")
	}
	for _, r := range reports {
		if r.ReusePRR < 0 {
			t.Errorf("report for %v has no reuse traffic", r.Link)
		}
	}
}

func TestSaveLoadTestbed(t *testing.T) {
	tb, _ := testNetwork(t)
	var buf bytes.Buffer
	if err := wsan.SaveTestbed(tb, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := wsan.LoadTestbed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != tb.NumNodes() {
		t.Errorf("round trip lost nodes: %d vs %d", got.NumNodes(), tb.NumNodes())
	}
	// A loaded testbed must still support network construction.
	if _, err := wsan.NewNetwork(got, 4); err != nil {
		t.Errorf("loaded testbed unusable: %v", err)
	}
}

func TestCustomTestbed(t *testing.T) {
	nodes := []wsan.Node{{ID: 0}, {ID: 1}, {ID: 2}}
	tb, err := wsan.CustomTestbed("tiny", nodes, func(u, v, ch int) float64 {
		return -60
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := wsan.NewNetwork(tb, 2)
	if err != nil {
		t.Fatal(err)
	}
	if net.CommEdges() != 3 {
		t.Errorf("complete 3-node graph expected, got %d edges", net.CommEdges())
	}
}

func TestKSTestExported(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	res, err := wsan.KSTest(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.D != 0 {
		t.Errorf("D = %v, want 0", res.D)
	}
}

func TestFacadeGenerators(t *testing.T) {
	ind, err := wsan.GenerateIndriya(2)
	if err != nil {
		t.Fatal(err)
	}
	if ind.NumNodes() != 80 {
		t.Errorf("Indriya nodes = %d", ind.NumNodes())
	}
	cfg := wsan.DefaultTestbedConfig()
	cfg.NumNodes = 12
	cfg.Floors = 1
	custom, err := wsan.GenerateTestbed(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if custom.NumNodes() != 12 {
		t.Errorf("custom nodes = %d", custom.NumNodes())
	}
}

func TestFacadeAnalysis(t *testing.T) {
	_, net := testNetwork(t)
	flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows: 8, MinPeriodExp: 0, MaxPeriodExp: 1,
		Traffic: wsan.PeerToPeer, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	util, err := wsan.AnalyzeUtilization(flows, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if util.Channel <= 0 || util.BottleneckNode <= 0 {
		t.Errorf("utilization = %+v", util)
	}
	bounds, err := wsan.DelayBounds(flows, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != len(flows) {
		t.Fatalf("bounds = %d", len(bounds))
	}
	res, err := net.Schedule(flows, wsan.RC, wsan.ScheduleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Skip("workload unschedulable with this seed")
	}
	lats, err := wsan.ScheduleLatencies(flows, res)
	if err != nil {
		t.Fatal(err)
	}
	// The delay bound must dominate the realized latency for every flow
	// the analysis admitted (soundness through the public API).
	byID := make(map[int]wsan.FlowLatency, len(lats))
	for _, l := range lats {
		byID[l.FlowID] = l
	}
	for _, b := range bounds {
		if !b.Schedulable {
			continue
		}
		if l, ok := byID[b.FlowID]; ok && l.WorstSlots > b.ResponseSlots {
			t.Errorf("flow %d: realized %d slots exceeds bound %d",
				b.FlowID, l.WorstSlots, b.ResponseSlots)
		}
	}
}

func TestScheduleLatenciesNilResult(t *testing.T) {
	if _, err := wsan.ScheduleLatencies(nil, nil); err == nil || err.Error() != "wsan: nil schedule" {
		t.Errorf("nil result: error %v, want wsan: nil schedule", err)
	}
}

func TestFacadeRepairLoop(t *testing.T) {
	_, net := testNetwork(t)
	flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows: 40, MinPeriodExp: 0, MaxPeriodExp: 0,
		Traffic: wsan.PeerToPeer, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Schedule(flows, wsan.RA, wsan.ScheduleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Skip("workload unschedulable with this seed")
	}
	cfg := net.NewSimConfig(flows, res, 100, 7)
	cfg.EpochSlots = 5_000
	cfg.SampleWindowSlots = 500
	cfg.ProbeEverySlots = 200
	sim, err := wsan.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reports := wsan.DetectDegradation(sim, wsan.DefaultDetectionConfig())
	rep, err := wsan.Repair(res, flows, reports)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moved > 0 {
		// Post-repair schedule must stay structurally valid (no reuse
		// constraint check here: repair only creates exclusive cells).
		for k := range res.Schedule.TxPerChannelHist() {
			if k < 1 {
				t.Errorf("impossible cell size %d", k)
			}
		}
	}
}

func TestNetworkAddFlow(t *testing.T) {
	_, net := testNetwork(t)
	flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows: 10, MinPeriodExp: 0, MaxPeriodExp: 1,
		Traffic: wsan.PeerToPeer, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Schedule(flows, wsan.RC, wsan.ScheduleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Skip("base workload unschedulable with this seed")
	}
	// A new flow between two non-AP nodes, lowest priority, harmonic period.
	extra, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows: 1, MinPeriodExp: 1, MaxPeriodExp: 1,
		Traffic: wsan.PeerToPeer, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	nf := extra[0]
	nf.ID = len(flows)
	nf.Deadline = nf.Period
	before := res.Schedule.Len()
	out, err := net.AddFlow(res, nf, wsan.RC, wsan.ScheduleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Schedulable {
		t.Fatal("incremental add should succeed on a light schedule")
	}
	if res.Schedule.Len() <= before {
		t.Error("no transmissions added")
	}
}

// TestNetworkAddFlowBatchPath pins what AddFlow adds on top of the delta
// engine: a flow that outranks a scheduled one is rejected, a lowest-priority
// admission reports the run's λ_R, and with a metrics sink it emits the
// delta engine's counters.
func TestNetworkAddFlowBatchPath(t *testing.T) {
	_, net := testNetwork(t)
	flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows: 10, MinPeriodExp: 0, MaxPeriodExp: 1,
		Traffic: wsan.PeerToPeer, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Schedule(flows, wsan.RC, wsan.ScheduleConfig{})
	if err != nil || !res.Schedulable {
		t.Fatalf("base schedule: %v", err)
	}
	nf := &wsan.Flow{ID: 10, Src: flows[0].Src, Dst: flows[1].Src, Period: 200, Deadline: 200}
	if err := net.Route([]*wsan.Flow{nf}, wsan.PeerToPeer); err != nil {
		t.Fatal(err)
	}
	outranks := *nf
	outranks.ID = 8
	if _, err := net.AddFlow(res, &outranks, wsan.RC, wsan.ScheduleConfig{}); err == nil {
		t.Error("a flow outranking a scheduled flow was admitted")
	}
	reg := wsan.NewMetricsRegistry()
	add, err := net.AddFlow(res, nf, wsan.RC, wsan.ScheduleConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !add.Schedulable || add.LambdaR != net.ReuseDiameter() || add.Schedule != res.Schedule {
		t.Fatalf("Schedulable=%v LambdaR=%d (want %d), same grid %v",
			add.Schedulable, add.LambdaR, net.ReuseDiameter(), add.Schedule == res.Schedule)
	}
	if got := reg.CounterValue("sched.incremental.add_ops"); got != 1 {
		t.Errorf("sched.incremental.add_ops = %d, want 1", got)
	}
}

// TestNetworkApplyDelta runs add, reroute, rebudget and remove as one
// facade batch on a scheduled 30-flow network. The result's workload must
// be the hand-edited one, its Changes the schedule diff, and the inverted
// Changes must restore the grid; a batch whose last op fails must leave the
// schedule and the caller's workload as they were.
func TestNetworkApplyDelta(t *testing.T) {
	_, net := testNetwork(t)
	flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows: 30, MinPeriodExp: 0, MaxPeriodExp: 2,
		Traffic: wsan.PeerToPeer, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Schedule(flows, wsan.RC, wsan.ScheduleConfig{})
	if err != nil || !res.Schedulable {
		t.Fatalf("base schedule: schedulable %v, %v", res != nil && res.Schedulable, err)
	}
	encode := func(res *wsan.ScheduleResult, flows []*wsan.Flow) (string, string) {
		t.Helper()
		var sb, wb bytes.Buffer
		if err := wsan.SaveSchedule(res, &sb); err != nil {
			t.Fatal(err)
		}
		if err := wsan.SaveWorkload(flows, &wb); err != nil {
			t.Fatal(err)
		}
		return sb.String(), wb.String()
	}
	before := wsan.CloneSchedule(res)
	_, beforeFlows := encode(res, flows)

	// Flow 30 joins on flow 0's endpoints; the first flow with a relay
	// detours around it; flow 1 sheds to one attempt per hop; flow 2 leaves.
	added := &wsan.Flow{ID: 30, Src: flows[0].Src, Dst: flows[0].Dst, Period: flows[0].Period, Deadline: flows[0].Period}
	if added.Route, err = net.RouteAvoiding(added.Src, added.Dst, nil); err != nil {
		t.Fatal(err)
	}
	var moved *wsan.Flow
	var detour []wsan.Link
	for _, f := range flows[3:] {
		if len(f.Route) < 2 {
			continue
		}
		if detour, err = net.RouteAvoiding(f.Src, f.Dst, []int{f.Route[0].To}); err == nil {
			moved = f
			break
		}
	}
	if moved == nil {
		t.Fatal("no flow with a relay has a detour")
	}
	shed := make([]int, len(flows[1].Route))
	for i := range shed {
		shed[i] = 1
	}
	ops := []wsan.DeltaOp{
		{Kind: wsan.DeltaAdd, Flow: added},
		{Kind: wsan.DeltaReroute, FlowID: moved.ID, Route: detour},
		{Kind: wsan.DeltaRebudget, FlowID: flows[1].ID, Budget: shed},
		{Kind: wsan.DeltaRemove, FlowID: flows[2].ID},
	}
	out, err := net.ApplyDelta(res, flows, ops, wsan.RC, wsan.ScheduleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Schedulable {
		t.Fatalf("batch infeasible at flow %d", out.FailedFlow)
	}
	if _, got := encode(before, flows); got != beforeFlows {
		t.Error("ApplyDelta mutated the caller's workload")
	}

	var want []*wsan.Flow
	for _, f := range flows {
		g := *f
		switch f.ID {
		case flows[2].ID:
			continue
		case flows[1].ID:
			g.TxBudget = shed
		case moved.ID:
			g.SetRoute(detour)
		}
		want = append(want, &g)
	}
	want = append(want, added)
	_, wantFlows := encode(res, want)
	if _, got := encode(res, out.Flows); got != wantFlows {
		t.Errorf("result workload differs from the hand-edited one:\n got %s\nwant %s", got, wantFlows)
	}

	diff, err := wsan.DiffSchedules(before, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Changes) == 0 || !reflect.DeepEqual(out.Changes, diff) {
		t.Errorf("Changes (%d entries) differ from the schedule diff (%d entries)", len(out.Changes), len(diff))
	}
	restored := wsan.CloneSchedule(res)
	if err := schedule.Apply(restored.Schedule, wsan.InvertDeltas(out.Changes)); err != nil {
		t.Fatal(err)
	}
	if back, err := wsan.DiffSchedules(before, restored); err != nil || len(back) != 0 {
		t.Errorf("applying the inverted Changes left %d differences (%v)", len(back), err)
	}

	// A batch whose last op removes an absent flow fails as a whole.
	afterSched, afterFlows := encode(res, out.Flows)
	late := &wsan.Flow{ID: 31, Src: added.Src, Dst: added.Dst, Period: added.Period, Deadline: added.Deadline, Route: added.Route}
	if _, err := net.ApplyDelta(res, out.Flows, []wsan.DeltaOp{
		{Kind: wsan.DeltaAdd, Flow: late},
		{Kind: wsan.DeltaRemove, FlowID: 99},
	}, wsan.RC, wsan.ScheduleConfig{}); err == nil {
		t.Fatal("a batch removing an absent flow succeeded")
	}
	if gotSched, gotFlows := encode(res, out.Flows); gotSched != afterSched || gotFlows != afterFlows {
		t.Error("a failed batch changed the schedule or the caller's workload")
	}
}

func TestCutVertices(t *testing.T) {
	// A 4-node line testbed: interior nodes are cut vertices.
	nodes := []wsan.Node{{ID: 0, X: 0}, {ID: 1, X: 20}, {ID: 2, X: 40}, {ID: 3, X: 60}}
	tb, err := wsan.CustomTestbed("line", nodes, func(u, v, ch int) float64 {
		if u-v == 1 || v-u == 1 {
			return -60
		}
		return -150
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := wsan.NewNetwork(tb, 2)
	if err != nil {
		t.Fatal(err)
	}
	cuts := net.CutVertices()
	if len(cuts) != 2 || cuts[0] != 1 || cuts[1] != 2 {
		t.Errorf("cut vertices = %v, want [1 2]", cuts)
	}
}

func TestEnergyFacade(t *testing.T) {
	em := wsan.DefaultEnergyModel()
	if em.TxFrameMJ <= 0 || em.RxFrameMJ <= 0 || em.IdleListenMJ <= 0 {
		t.Errorf("default energy model has non-positive costs: %+v", em)
	}
	if y := wsan.LifetimeYears(0.5, 100, 20_000); y <= 1 || y >= 2 {
		t.Errorf("LifetimeYears = %v, want ≈1.27", y)
	}
}

func TestManageFacade(t *testing.T) {
	_, net := testNetwork(t)
	flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows: 30, MinPeriodExp: 0, MaxPeriodExp: 0,
		Traffic: wsan.PeerToPeer, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Schedule(flows, wsan.RA, wsan.ScheduleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Skip("workload unschedulable with this seed")
	}
	iters, err := wsan.Manage(wsan.ManageConfig{
		Sim: wsan.SimConfig{
			Testbed:            net.Testbed(),
			Flows:              flows,
			Schedule:           res.Schedule,
			Channels:           net.Channels(),
			EpochSlots:         5_000,
			SampleWindowSlots:  500,
			ProbeEverySlots:    200,
			FadingSigmaDB:      2.5,
			SurveyDriftSigmaDB: 2.5,
			Seed:               2,
		},
		MaxIterations: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) == 0 {
		t.Fatal("no iterations ran")
	}
}

func TestCompactFacade(t *testing.T) {
	_, net := testNetwork(t)
	flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows: 15, MinPeriodExp: 0, MaxPeriodExp: 1,
		Traffic: wsan.PeerToPeer, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Schedule(flows, wsan.RC, wsan.ScheduleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Skip("unschedulable draw")
	}
	// An earliest-slot schedule is already compact: nothing should move.
	moved, err := net.Compact(res, flows)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Errorf("fresh earliest-slot schedule moved %d transmissions", moved)
	}
}

func TestDiffSchedulesFacade(t *testing.T) {
	_, net := testNetwork(t)
	flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows: 20, MinPeriodExp: 0, MaxPeriodExp: 0,
		Traffic: wsan.PeerToPeer, Seed: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Schedule(flows, wsan.RA, wsan.ScheduleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Skip("unschedulable draw")
	}
	before := wsan.CloneSchedule(res)
	// Repair every reused link to force some movement.
	var reports []wsan.DetectionReport
	for l := range res.Schedule.ReusedLinks() {
		reports = append(reports, wsan.DetectionReport{
			Link:    wsan.Link{From: l[0], To: l[1]},
			Verdict: wsan.VerdictReuseDegraded,
		})
	}
	rep, err := wsan.Repair(res, flows, reports)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := wsan.DiffSchedules(before, res)
	if err != nil {
		t.Fatal(err)
	}
	// Each genuinely relocated transmission contributes one removal and one
	// addition; a victim re-placed into its original cell (after its
	// cellmate moved away) counts as moved but produces no delta.
	if len(delta)%2 != 0 {
		t.Errorf("delta entries = %d, want an even count", len(delta))
	}
	if len(delta) > 2*rep.Moved {
		t.Errorf("delta entries = %d exceed 2×%d moved", len(delta), rep.Moved)
	}
	if rep.Moved > 0 && len(delta) == 0 {
		t.Log("all moves returned to original cells (rare but legal)")
	}
}

func TestSimulateConvergedFacade(t *testing.T) {
	_, net := testNetwork(t)
	flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows: 10, MinPeriodExp: 0, MaxPeriodExp: 1,
		Traffic: wsan.PeerToPeer, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Schedule(flows, wsan.RC, wsan.ScheduleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Skip("unschedulable draw")
	}
	out, err := wsan.SimulateConverged(net.NewSimConfig(flows, res, 0, 3), wsan.ConvergeOpts{
		ChunkHyperperiods: 20, MaxChunks: 30, HalfWidth: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Chunks == 0 {
		t.Fatal("no chunks ran")
	}
	if out.Converged && out.WorstHalfWidth > 0.05 {
		t.Errorf("converged above target: %+v", out)
	}
}
