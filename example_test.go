package wsan_test

import (
	"fmt"

	"wsan"
)

// ExampleNewNetwork shows the minimal pipeline: testbed → network →
// workload → RC schedule.
func ExampleNewNetwork() {
	tb, err := wsan.GenerateWUSTL(1)
	if err != nil {
		fmt.Println(err)
		return
	}
	net, err := wsan.NewNetwork(tb, 4)
	if err != nil {
		fmt.Println(err)
		return
	}
	flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows: 10, MinPeriodExp: 0, MaxPeriodExp: 1,
		Traffic: wsan.PeerToPeer, Seed: 7,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := net.Schedule(flows, wsan.RC, wsan.ScheduleConfig{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("schedulable:", res.Schedulable)
	// Output: schedulable: true
}

// ExampleCustomTestbed builds a testbed from explicit link gains — the
// entry point for users with their own site surveys.
func ExampleCustomTestbed() {
	nodes := []wsan.Node{{ID: 0}, {ID: 1}, {ID: 2}}
	tb, err := wsan.CustomTestbed("lab", nodes, func(u, v, ch int) float64 {
		return -60 // every pair strongly connected on every channel
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	net, err := wsan.NewNetwork(tb, 2)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("links:", net.CommEdges())
	// Output: links: 3
}

// ExampleKSTest demonstrates the detection policy's statistical core.
func ExampleKSTest() {
	healthy := []float64{0.95, 0.97, 0.96, 0.98, 0.95, 0.97, 0.99, 0.96}
	degraded := []float64{0.60, 0.65, 0.58, 0.62, 0.66, 0.61, 0.59, 0.63}
	res, err := wsan.KSTest(healthy, degraded)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("D=%.2f reject=%v\n", res.D, res.Reject(0.05))
	// Output: D=1.00 reject=true
}

// ExampleDelayBounds admission-tests a workload without running the
// scheduler.
func ExampleDelayBounds() {
	flows := []*wsan.Flow{
		{ID: 0, Src: 0, Dst: 2, Period: 100, Deadline: 50,
			Route: []wsan.Link{{From: 0, To: 1}, {From: 1, To: 2}}},
		{ID: 1, Src: 3, Dst: 1, Period: 200, Deadline: 100,
			Route: []wsan.Link{{From: 3, To: 1}}},
	}
	bounds, err := wsan.DelayBounds(flows, 4, 2)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, b := range bounds {
		fmt.Printf("flow %d: response ≤ %d slots\n", b.FlowID, b.ResponseSlots)
	}
	// Output:
	// flow 0: response ≤ 4 slots
	// flow 1: response ≤ 6 slots
}

// ExampleSummary shows the box-plot helper used for Fig. 8-style reporting.
func ExampleSummary() {
	fn, err := wsan.Summary([]float64{1, 0.98, 0.99, 1, 0.97, 1, 1, 0.85})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("min=%.2f median=%.2f\n", fn.Min, fn.Median)
	// Output: min=0.85 median=0.99
}

// ExampleNetwork_AddFlow admits a new control loop into a running schedule
// without disturbing the existing transmissions.
func ExampleNetwork_AddFlow() {
	tb, err := wsan.GenerateWUSTL(1)
	if err != nil {
		fmt.Println(err)
		return
	}
	net, err := wsan.NewNetwork(tb, 4)
	if err != nil {
		fmt.Println(err)
		return
	}
	flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows: 10, MinPeriodExp: 0, MaxPeriodExp: 1,
		Traffic: wsan.PeerToPeer, Seed: 7,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := net.Schedule(flows, wsan.RC, wsan.ScheduleConfig{})
	if err != nil || !res.Schedulable {
		fmt.Println("base schedule failed")
		return
	}
	before := res.Schedule.Len()
	newFlow := &wsan.Flow{
		ID: 10, Src: flows[0].Src, Dst: flows[1].Src,
		Period: 200, Deadline: 200,
	}
	if err := net.Route([]*wsan.Flow{newFlow}, wsan.PeerToPeer); err != nil {
		fmt.Println(err)
		return
	}
	add, err := net.AddFlow(res, newFlow, wsan.RC, wsan.ScheduleConfig{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("admitted:", add.Schedulable, "existing untouched:", res.Schedule.Len() > before)
	// Output: admitted: true existing untouched: true
}

// ExampleDetectDegradation attributes link-reliability degradation to
// channel reuse versus external interference, then repairs the links reuse
// hurts. An aggressively reused (RA) schedule runs for two 15-minute
// health-report epochs while a WiFi access point on each floor overlaps the
// network's channels. The paper's Sec. VI policy (a Kolmogorov-Smirnov test
// of PRR in reuse slots against contention-free slots) gives each degraded
// link a verdict; only the reuse-degraded ones are moved to exclusive
// cells. The output also pins the simulator end to end.
func ExampleDetectDegradation() {
	tb, err := wsan.GenerateWUSTL(1)
	if err != nil {
		fmt.Println(err)
		return
	}
	net, err := wsan.NewNetwork(tb, 4) // channels 11-14: overlapped by WiFi ch.1
	if err != nil {
		fmt.Println(err)
		return
	}
	// A dense 1 Hz monitoring workload, scheduled with aggressive reuse so
	// that plenty of links share channels.
	var flows []*wsan.Flow
	var sched *wsan.ScheduleResult
	for seed := int64(0); sched == nil || !sched.Schedulable; seed++ {
		if seed > 50 {
			fmt.Println("no schedulable workload found")
			return
		}
		flows, err = net.GenerateWorkload(wsan.WorkloadConfig{
			NumFlows: 50, MinPeriodExp: 0, MaxPeriodExp: 0,
			Traffic: wsan.PeerToPeer, Seed: seed,
		})
		if err != nil {
			fmt.Println(err)
			return
		}
		if sched, err = net.Schedule(flows, wsan.RA, wsan.ScheduleConfig{}); err != nil {
			fmt.Println(err)
			return
		}
	}
	fmt.Printf("RA schedule: %d transmissions, %d links share channels\n",
		sched.Schedule.Len(), len(sched.Schedule.ReusedLinks()))

	// Two 15-minute epochs (1800 × 100-slot frames) of 18 PRR samples each,
	// with neighbor-discovery probes and a WiFi interferer on each floor.
	cfg := net.NewSimConfig(flows, sched, 1800, 21)
	cfg.EpochSlots = 90_000
	cfg.SampleWindowSlots = 5_000
	cfg.ProbeEverySlots = 250
	for floor := 0; floor < 3; floor++ {
		cfg.Interferers = append(cfg.Interferers, wsan.Interferer{
			X: 50, Y: 20, Z: float64(4 * floor), Floor: floor, PowerDBm: -18,
			DutyCycle: 0.3, MeanBurstSlots: 20, Channels: []int{0, 1, 2, 3},
		})
	}
	sim, err := wsan.Simulate(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}

	reports := wsan.DetectDegradation(sim, wsan.DefaultDetectionConfig())
	fmt.Printf("\n%-12s %-6s %-16s %-10s %-10s %s\n",
		"link", "epoch", "verdict", "PRR reuse", "PRR cf", "action")
	actionable := 0
	for _, r := range reports {
		if r.Verdict == wsan.VerdictMeets {
			continue
		}
		action := "leave schedule unchanged (reuse not at fault)"
		if r.Verdict == wsan.VerdictReuseDegraded {
			action = "reassign to a private channel/slot"
			actionable++
		}
		fmt.Printf("%3d->%-7d %-6d %-16s %-10.3f %-10.3f %s\n",
			r.Link.From, r.Link.To, r.Epoch+1, r.Verdict, r.ReusePRR, r.CFPRR, action)
	}
	fmt.Printf("\n%d link-epochs need rescheduling; the rest of the degradation is external.\n", actionable)

	// Act on the verdicts: move the reuse-degraded links' transmissions to
	// contention-free cells.
	rep, err := wsan.Repair(sched, flows, reports)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("repair: %d degraded links, %d transmissions moved to exclusive cells, %d unmovable\n",
		rep.DegradedLinks, rep.Moved, len(rep.Failed))
	// Output:
	// RA schedule: 312 transmissions, 95 links share channels
	//
	// link         epoch  verdict          PRR reuse  PRR cf     action
	//   1->3       1      reuse-degraded   0.844      0.644      reassign to a private channel/slot
	//   1->3       2      reuse-degraded   0.846      0.661      reassign to a private channel/slot
	//   2->11      1      other-cause      0.530      0.557      leave schedule unchanged (reuse not at fault)
	//   2->11      2      other-cause      0.524      0.535      leave schedule unchanged (reuse not at fault)
	//   2->12      1      reuse-degraded   0.542      0.653      reassign to a private channel/slot
	//   2->12      2      reuse-degraded   0.536      0.606      reassign to a private channel/slot
	//   2->18      1      other-cause      0.899      0.883      leave schedule unchanged (reuse not at fault)
	//   4->24      1      reuse-degraded   0.864      0.897      reassign to a private channel/slot
	//   4->24      2      reuse-degraded   0.834      0.881      reassign to a private channel/slot
	//   5->4       1      reuse-degraded   0.802      0.842      reassign to a private channel/slot
	//   5->4       2      other-cause      0.806      0.828      leave schedule unchanged (reuse not at fault)
	//   5->11      1      other-cause      0.468      0.491      leave schedule unchanged (reuse not at fault)
	//   5->11      2      other-cause      0.467      0.464      leave schedule unchanged (reuse not at fault)
	//  10->30      2      reuse-degraded   0.889      0.953      reassign to a private channel/slot
	//  15->5       1      reuse-degraded   0.856      0.970      reassign to a private channel/slot
	//  15->5       2      reuse-degraded   0.852      0.960      reassign to a private channel/slot
	//  17->19      1      reuse-degraded   0.567      0.708      reassign to a private channel/slot
	//  17->19      2      reuse-degraded   0.555      0.672      reassign to a private channel/slot
	//  18->2       1      reuse-degraded   0.635      0.747      reassign to a private channel/slot
	//  18->2       2      reuse-degraded   0.635      0.747      reassign to a private channel/slot
	//  21->38      1      reuse-degraded   0.663      0.983      reassign to a private channel/slot
	//  21->38      2      reuse-degraded   0.663      0.964      reassign to a private channel/slot
	//  25->24      1      other-cause      0.849      0.850      leave schedule unchanged (reuse not at fault)
	//  25->24      2      other-cause      0.842      0.853      leave schedule unchanged (reuse not at fault)
	//  31->51      1      reuse-degraded   0.735      0.875      reassign to a private channel/slot
	//  31->51      2      reuse-degraded   0.742      0.853      reassign to a private channel/slot
	//  32->39      1      other-cause      0.875      0.858      leave schedule unchanged (reuse not at fault)
	//  32->39      2      other-cause      0.870      0.869      leave schedule unchanged (reuse not at fault)
	//  34->55      1      reuse-degraded   0.797      0.986      reassign to a private channel/slot
	//  34->55      2      reuse-degraded   0.782      0.994      reassign to a private channel/slot
	//  35->15      1      reuse-degraded   0.850      0.992      reassign to a private channel/slot
	//  35->15      2      reuse-degraded   0.870      0.986      reassign to a private channel/slot
	//  39->36      1      reuse-degraded   0.877      0.805      reassign to a private channel/slot
	//  39->36      2      reuse-degraded   0.885      0.789      reassign to a private channel/slot
	//  42->44      2      reuse-degraded   0.879      0.947      reassign to a private channel/slot
	//  42->51      1      reuse-degraded   0.632      0.703      reassign to a private channel/slot
	//  42->51      2      reuse-degraded   0.577      0.686      reassign to a private channel/slot
	//  51->32      1      other-cause      0.354      0.375      leave schedule unchanged (reuse not at fault)
	//  51->32      2      reuse-degraded   0.318      0.364      reassign to a private channel/slot
	//  52->32      1      reuse-degraded   0.555      0.608      reassign to a private channel/slot
	//  52->32      2      other-cause      0.553      0.594      leave schedule unchanged (reuse not at fault)
	//  54->44      1      reuse-degraded   0.467      0.753      reassign to a private channel/slot
	//  54->44      2      reuse-degraded   0.455      0.753      reassign to a private channel/slot
	//  58->59      1      reuse-degraded   0.754      0.856      reassign to a private channel/slot
	//  58->59      2      reuse-degraded   0.761      0.844      reassign to a private channel/slot
	//  59->44      1      reuse-degraded   0.616      0.758      reassign to a private channel/slot
	//  59->44      2      reuse-degraded   0.591      0.744      reassign to a private channel/slot
	//
	// 35 link-epochs need rescheduling; the rest of the degradation is external.
	// repair: 20 degraded links, 14 transmissions moved to exclusive cells, 38 unmovable
}
