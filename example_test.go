package wsan_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"wsan"
	"wsan/internal/schedule"
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

// Example walks the quickstart: build a network from a synthetic testbed,
// generate a real-time workload, schedule it with conservative channel
// reuse (RC), and execute the schedule on the TSCH simulator.
func Example() {
	// A testbed: 60 nodes across 3 floors with per-channel PRRs, standing in
	// for a site survey collected by the network manager.
	tb, err := wsan.GenerateWUSTL(1)
	if err != nil {
		fmt.Println(err)
		return
	}
	// The network on 4 channels (802.15.4 channels 11-14): the communication
	// graph (reliable links) and the channel-reuse graph (interference).
	net, err := wsan.NewNetwork(tb, 4)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("network: %d nodes, %d reliable links, reuse diameter λ_R=%d, APs=%v\n",
		tb.NumNodes(), net.CommEdges(), net.ReuseDiameter(), net.AccessPoints())

	// 30 periodic flows with harmonic periods of 0.5-2 s, Deadline-Monotonic
	// priorities, peer-to-peer shortest-path routes.
	flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows:     30,
		MinPeriodExp: -1, // 2^-1 s
		MaxPeriodExp: 1,  // 2^1 s
		Traffic:      wsan.PeerToPeer,
		Seed:         7,
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	// RC introduces channel reuse only where a flow would otherwise miss its
	// deadline.
	res, err := net.Schedule(flows, wsan.RC, wsan.ScheduleConfig{})
	if err != nil || !res.Schedulable {
		fmt.Println("workload not schedulable", err)
		return
	}
	fmt.Printf("schedule: %d transmissions in %d slots, Tx/channel histogram %v\n",
		res.Schedule.Len(), res.Schedule.NumSlots(), res.Schedule.TxPerChannelHist())

	// Execute 100 hyperperiods on the simulated radio environment.
	sim, err := wsan.Simulate(net.NewSimConfig(flows, res, 100, 42))
	if err != nil {
		fmt.Println(err)
		return
	}
	fn, err := wsan.Summary(sim.PDRs())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("delivery over 100 hyperperiods: %s\n", fn)
	// Output:
	// network: 60 nodes, 186 reliable links, reuse diameter λ_R=4, APs=[29 44]
	// schedule: 344 transmissions in 200 slots, Tx/channel histogram map[1:324 2:10]
	// delivery over 100 hyperperiods: min=1.000 q1=1.000 med=1.000 q3=1.000 max=1.000
}

// ExampleNetwork_Schedule dimensions a process-control network for a
// two-floor plant: how many control loops can it sustain, and which
// scheduler should it deploy? Controllers run on field devices
// (peer-to-peer traffic), loops run at 1-4 s periods, and only 3 clean
// channels survive the site's WiFi blacklist. The sweep compares the
// WirelessHART baseline (NR) with aggressive (RA) and conservative (RC)
// channel reuse, then verifies the chosen RC schedule's delivery on the
// simulated plant radio environment.
func ExampleNetwork_Schedule() {
	// A custom plant: 48 devices on two production floors.
	cfg := wsan.DefaultTestbedConfig()
	cfg.Name = "plant"
	cfg.NumNodes = 48
	cfg.Floors = 2
	cfg.FloorWidthM = 120
	cfg.FloorDepthM = 50
	cfg.PathLoss.Exponent = 3.6 // cluttered machinery hall
	tb, err := wsan.GenerateTestbed(cfg, 11)
	if err != nil {
		fmt.Println(err)
		return
	}
	// Channels 16-18 (indices 5-7) survive the site's WiFi blacklist.
	net, err := wsan.NewNetworkOnChannels(tb, []int{5, 6, 7})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("plant network: %d devices, %d reliable links, access points %v\n\n",
		tb.NumNodes(), net.CommEdges(), net.AccessPoints())

	// Sweep the number of control loops over 20 random workloads each.
	fmt.Println("control loops sustained (schedulable workloads out of 20):")
	fmt.Println("loops  NR  RA  RC")
	const trials = 20
	best := 20
	for _, loops := range []int{40, 60, 80, 100, 120} {
		ok := map[wsan.Algorithm]int{}
		for trial := 0; trial < trials; trial++ {
			flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
				NumFlows:     loops,
				MinPeriodExp: 0, // 1 s
				MaxPeriodExp: 2, // 4 s
				Traffic:      wsan.PeerToPeer,
				Seed:         int64(loops*1000 + trial),
			})
			if err != nil {
				fmt.Println(err)
				return
			}
			for _, alg := range []wsan.Algorithm{wsan.NR, wsan.RA, wsan.RC} {
				// Each scheduler gets its own deep copy of the workload.
				fs := make([]*wsan.Flow, len(flows))
				for i, f := range flows {
					fs[i] = f.Clone()
				}
				res, err := net.Schedule(fs, alg, wsan.ScheduleConfig{})
				if err != nil {
					fmt.Println(err)
					return
				}
				if res.Schedulable {
					ok[alg]++
				}
			}
		}
		fmt.Printf("%5d  %2d  %2d  %2d\n", loops, ok[wsan.NR], ok[wsan.RA], ok[wsan.RC])
		if ok[wsan.RC] >= trials*9/10 {
			best = loops
		}
	}

	// Deploy RC at the largest loop count it sustained reliably.
	fmt.Printf("\ndeploying RC with %d loops; verifying delivery...\n", best)
	flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows:     best,
		MinPeriodExp: 0,
		MaxPeriodExp: 2,
		Traffic:      wsan.PeerToPeer,
		Seed:         99,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := net.Schedule(flows, wsan.RC, wsan.ScheduleConfig{})
	if err != nil || !res.Schedulable {
		fmt.Println("deployment workload unschedulable", err)
		return
	}
	sim, err := wsan.Simulate(net.NewSimConfig(flows, res, 200, 5))
	if err != nil {
		fmt.Println(err)
		return
	}
	fn, err := wsan.Summary(sim.PDRs())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("per-loop delivery over 200 hyperperiods: %s\n", fn)
	// Output:
	// plant network: 48 devices, 140 reliable links, access points [12 38]
	//
	// control loops sustained (schedulable workloads out of 20):
	// loops  NR  RA  RC
	//    40  20  20  20
	//    60  20  20  20
	//    80   4  20  19
	//   100   0  19  17
	//   120   0  10   1
	//
	// deploying RC with 80 loops; verifying delivery...
	// per-loop delivery over 200 hyperperiods: min=0.915 q1=1.000 med=1.000 q3=1.000 max=1.000
}

// ExampleNewNetworkOnChannels walks the network-manager workflow end to
// end. A WirelessHART manager does more than compute a schedule: it
// blacklists noisy channels, admission-tests a workload before touching the
// network, disseminates a per-device link schedule to every field device,
// watches duty cycles (battery life), and encodes the artifacts it
// distributes: the testbed survey and the full schedule.
func ExampleNewNetworkOnChannels() {
	tb, err := wsan.GenerateWUSTL(3)
	if err != nil {
		fmt.Println(err)
		return
	}

	// 1. Channel blacklisting: keep the 4 best channels of the 16 surveyed.
	chs, err := tb.BestChannels(4, 0.9)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("survey: %d nodes; blacklist keeps channels %v (IEEE", tb.NumNodes(), chs)
	for _, ch := range chs {
		fmt.Printf(" %d", 11+ch)
	}
	fmt.Println(")")
	net, err := wsan.NewNetworkOnChannels(tb, chs)
	if err != nil {
		fmt.Println(err)
		return
	}
	if cuts := net.CutVertices(); len(cuts) > 0 {
		fmt.Printf("warning: nodes %v are single points of failure\n", cuts)
	}

	// 2. Workload admission: run the delay-bound test before scheduling.
	flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows:     25,
		MinPeriodExp: 0,
		MaxPeriodExp: 2,
		Traffic:      wsan.PeerToPeer,
		Seed:         8,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	util, err := wsan.AnalyzeUtilization(flows, len(chs), 2)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("admission: channel utilization %.0f%%, bottleneck node %d at %.0f%%\n",
		util.Channel*100, util.BottleneckID, util.BottleneckNode*100)
	bounds, err := wsan.DelayBounds(flows, len(chs), 2)
	if err != nil {
		fmt.Println(err)
		return
	}
	admitted := 0
	for _, b := range bounds {
		if b.Schedulable {
			admitted++
		}
	}
	fmt.Printf("admission: delay bound admits %d/%d flows a priori\n", admitted, len(flows))

	// 3. Schedule with RC and verify latency slack.
	res, err := net.Schedule(flows, wsan.RC, wsan.ScheduleConfig{})
	if err != nil || !res.Schedulable {
		fmt.Println("workload unschedulable", err)
		return
	}
	lats, err := wsan.ScheduleLatencies(flows, res)
	if err != nil {
		fmt.Println(err)
		return
	}
	minSlack := lats[0]
	for _, l := range lats {
		if l.Slack() < minSlack.Slack() {
			minSlack = l
		}
	}
	fmt.Printf("schedule: %d transmissions in %d slots; tightest flow %d has %d ms slack\n",
		res.Schedule.Len(), res.Schedule.NumSlots(), minSlack.FlowID, minSlack.Slack()*10)

	// 4. Dissemination: per-device link schedules and duty cycles.
	type deviceLoad struct {
		node  int
		slots int
		duty  float64
	}
	var loads []deviceLoad
	for id := 0; id < tb.NumNodes(); id++ {
		if ds := res.Schedule.DeviceSchedule(id); len(ds) > 0 {
			loads = append(loads, deviceLoad{id, len(ds), res.Schedule.DutyCycle(id)})
		}
	}
	sort.Slice(loads, func(i, j int) bool { return loads[i].duty > loads[j].duty })

	// Execute briefly with the energy model to estimate the battery life of
	// the busiest devices (a pair of AA cells ≈ 20 kJ).
	simCfg := net.NewSimConfig(flows, res, 20, 4)
	em := wsan.DefaultEnergyModel()
	simCfg.Energy = &em
	sim, err := wsan.Simulate(simCfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("\nbusiest devices (dissemination units):")
	fmt.Println("node  link-slots  duty cycle  battery life")
	for _, l := range loads[:5] {
		years := wsan.LifetimeYears(sim.EnergyMJ[l.node]/20, res.Schedule.NumSlots(), 20_000)
		fmt.Printf("%4d  %10d  %9.1f%%  %9.1f y\n", l.node, l.slots, l.duty*100, years)
	}

	// 5. Encode the artifacts the manager distributes.
	var survey, sched bytes.Buffer
	if err := wsan.SaveTestbed(tb, &survey); err != nil {
		fmt.Println(err)
		return
	}
	if err := wsan.SaveSchedule(res, &sched); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("\nartifacts: survey.json %d bytes, schedule.json %d bytes\n", survey.Len(), sched.Len())
	// Output:
	// survey: 60 nodes; blacklist keeps channels [0 3 7 11] (IEEE 11 14 18 22)
	// admission: channel utilization 21%, bottleneck node 31 at 12%
	// admission: delay bound admits 25/25 flows a priori
	// schedule: 342 transmissions in 400 slots; tightest flow 0 has 460 ms slack
	//
	// busiest devices (dissemination units):
	// node  link-slots  duty cycle  battery life
	//   31          48       12.0%        0.5 y
	//    1          40       10.0%        0.7 y
	//   32          36        9.0%        0.7 y
	//   17          32        8.0%        0.7 y
	//   29          32        8.0%        0.8 y
	//
	// artifacts: survey.json 467436 bytes, schedule.json 31640 bytes
}

// ExampleSimulate shows why channel reuse across gateways is dangerous —
// the paper's Sec. III premise. WirelessHART forbids reuse within one
// gateway's network but cannot coordinate between networks: two plants,
// each scheduled in isolation, may land transmissions on the same channel
// in the same slot. Both 24-node networks run on one shared radio medium:
// far apart, wall to wall on the same channels, and wall to wall on
// disjoint channels (the practical mitigation).
func ExampleSimulate() {
	fmt.Println("two independently scheduled 24-node networks sharing the air:")
	fmt.Println()
	fmt.Println("configuration                       net A PDR (min/med)  net B PDR (min/med)")
	for _, cfg := range []struct {
		name    string
		gapM    float64
		bOffset int // channel offset base for network B
	}{
		{"200 m apart, same channels", 200, 0},
		{"adjacent, same channels", 0, 0},
		{"adjacent, disjoint channels", 0, coexistChannels},
	} {
		a, b, err := coexist(cfg.gapM, cfg.bOffset)
		if err != nil {
			fmt.Printf("%s: %v\n", cfg.name, err)
			return
		}
		fmt.Printf("%-35s  %.3f / %.3f        %.3f / %.3f\n", cfg.name, a.Min, a.Median, b.Min, b.Median)
	}
	// Output:
	// two independently scheduled 24-node networks sharing the air:
	//
	// configuration                       net A PDR (min/med)  net B PDR (min/med)
	// 200 m apart, same channels           1.000 / 1.000        1.000 / 1.000
	// adjacent, same channels              0.310 / 1.000        0.770 / 1.000
	// adjacent, disjoint channels          1.000 / 1.000        1.000 / 1.000
}

const (
	coexistNodes    = 24  // nodes per network
	coexistChannels = 4   // channels per network
	coexistFlowBase = 100 // offset keeping the two networks' flow IDs distinct
)

// coexistGain is the log-distance path gain between two nodes.
func coexistGain(nodes []wsan.Node) func(u, v, ch int) float64 {
	return func(u, v, ch int) float64 {
		dist := math.Max(math.Hypot(nodes[u].X-nodes[v].X, nodes[u].Y-nodes[v].Y), 1)
		return -40.2 - 10*3.2*math.Log10(dist)
	}
}

// coexistGrid lays out one plant's 24 nodes on a 6×4 grid starting at x0.
func coexistGrid(firstID int, x0 float64) []wsan.Node {
	var nodes []wsan.Node
	for i := 0; i < coexistNodes; i++ {
		nodes = append(nodes, wsan.Node{ID: firstID + i, X: x0 + float64(i%6)*10, Y: float64(i/6) * 10})
	}
	return nodes
}

// coexist builds both plants gapM meters apart, schedules each in
// isolation, merges the schedules onto one medium (network B shifted to
// channel offsets bBase..bBase+3), and returns each network's PDR summary.
func coexist(gapM float64, bBase int) (a, b wsan.FiveNum, err error) {
	nodes := append(coexistGrid(0, 0), coexistGrid(coexistNodes, 60+gapM)...)
	world, err := wsan.CustomTestbed("coexistence", nodes, coexistGain(nodes))
	if err != nil {
		return a, b, err
	}
	// Each manager sees only its own plant.
	planA, flowsA, err := coexistPlan(0)
	if err != nil {
		return a, b, err
	}
	planB, flowsB, err := coexistPlan(1)
	if err != nil {
		return a, b, err
	}
	// Merge onto the shared medium: remap network B's nodes and flow IDs,
	// and give it its channel block.
	offsets := bBase + coexistChannels
	merged, err := schedule.New(planA.Schedule.NumSlots(), offsets, 2*coexistNodes)
	if err != nil {
		return a, b, err
	}
	for _, tx := range planA.Schedule.Txs() {
		if err := merged.Place(tx); err != nil {
			return a, b, err
		}
	}
	for _, tx := range planB.Schedule.Txs() {
		tx.FlowID += coexistFlowBase
		tx.Link.From += coexistNodes
		tx.Link.To += coexistNodes
		tx.Offset += bBase
		if err := merged.Place(tx); err != nil {
			return a, b, err
		}
	}
	flows := flowsA
	for _, f := range flowsB {
		cp := f.Clone()
		cp.ID += coexistFlowBase
		cp.Src += coexistNodes
		cp.Dst += coexistNodes
		for i := range cp.Route {
			cp.Route[i].From += coexistNodes
			cp.Route[i].To += coexistNodes
		}
		flows = append(flows, cp)
	}
	channels := make([]int, offsets)
	for i := range channels {
		channels[i] = i % wsan.NumChannels
	}
	sim, err := wsan.Simulate(wsan.SimConfig{
		Testbed:            world,
		Flows:              flows,
		Schedule:           merged,
		Channels:           channels,
		Hyperperiods:       200,
		FadingSigmaDB:      2.5,
		SurveyDriftSigmaDB: 2.0,
		Seed:               7,
	})
	if err != nil {
		return a, b, err
	}
	var aPDRs, bPDRs []float64
	for id := range sim.Released {
		if id >= coexistFlowBase {
			bPDRs = append(bPDRs, sim.PDR(id))
		} else {
			aPDRs = append(aPDRs, sim.PDR(id))
		}
	}
	if a, err = wsan.Summary(aPDRs); err != nil {
		return a, b, err
	}
	b, err = wsan.Summary(bPDRs)
	return a, b, err
}

// coexistPlan schedules one plant in isolation: its manager surveys only
// its own 24 nodes and runs RC on 4 channels.
func coexistPlan(which int) (*wsan.ScheduleResult, []*wsan.Flow, error) {
	nodes := coexistGrid(0, 0)
	tb, err := wsan.CustomTestbed(fmt.Sprintf("plant-%d", which), nodes, coexistGain(nodes))
	if err != nil {
		return nil, nil, err
	}
	net, err := wsan.NewNetwork(tb, coexistChannels)
	if err != nil {
		return nil, nil, err
	}
	flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows:     16,
		MinPeriodExp: 0,
		MaxPeriodExp: 1,
		Traffic:      wsan.PeerToPeer,
		Seed:         int64(31 + which),
	})
	if err != nil {
		return nil, nil, err
	}
	res, err := net.Schedule(flows, wsan.RC, wsan.ScheduleConfig{})
	if err != nil {
		return nil, nil, err
	}
	if !res.Schedulable {
		return nil, nil, fmt.Errorf("plant %d workload unschedulable", which)
	}
	return res, flows, nil
}

// ExampleNewMetricsRegistry attaches one observability sink to every stage
// of the pipeline — scheduling, simulation, and the closed management loop
// — and prints the aggregated counters and gauges: the stream `wsansim
// -metrics <command>` dumps and `-pprof addr` serves live as the
// "wsan_metrics" expvar. (The timing histograms vary from run to run, so
// the example leaves them out.)
func ExampleNewMetricsRegistry() {
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
		NumFlows: 30, MinPeriodExp: 0, MaxPeriodExp: 1,
		Traffic: wsan.PeerToPeer, Seed: 7,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	// One registry aggregates every stage. Any wsan.MetricsSink works here:
	// wrap your own telemetry client, or fan out with wsan.MultiMetricsSink.
	reg := wsan.NewMetricsRegistry()

	// Scheduling flushes "scheduler.rc.*": placements, reuse decisions,
	// laxity passes/fails, ρ-search steps, slots examined.
	res, err := net.Schedule(flows, wsan.RC, wsan.ScheduleConfig{Metrics: reg})
	if err != nil || !res.Schedulable {
		fmt.Println("workload not schedulable", err)
		return
	}
	// Simulation flushes "netsim.*": transmissions, SINR failures, capture
	// wins, co-channel collisions, per-channel retransmissions.
	simCfg := net.NewSimConfig(flows, res, 50, 42).WithMetricsSink(reg)
	if _, err := wsan.SimulateCtx(context.Background(), simCfg); err != nil {
		fmt.Println(err)
		return
	}
	// The management loop flushes "manage.*" verdict counts and repair
	// moves per iteration through the sink on its Sim config.
	if _, err := wsan.ManageCtx(context.Background(), wsan.ManageConfig{
		Sim: wsan.SimConfig{
			Testbed:           net.Testbed(),
			Flows:             flows,
			Schedule:          res.Schedule,
			Channels:          net.Channels(),
			EpochSlots:        10_000,
			SampleWindowSlots: 1_000,
			FadingSigmaDB:     2.5,
			Seed:              3,
		}.WithMetricsSink(reg),
		MaxIterations: 2,
	}); err != nil {
		fmt.Println(err)
		return
	}
	snap := reg.Snapshot()
	snap.Histograms = nil
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(string(out))
	// Output:
	// {
	//   "counters": {
	//     "manage.degraded_links": 0,
	//     "manage.delta_changes": 0,
	//     "manage.iterations": 1,
	//     "manage.repair.moved": 0,
	//     "manage.repair.unmovable": 0,
	//     "manage.verdict.meets": 4,
	//     "netsim.ack_failed": 153,
	//     "netsim.capture_wins": 397,
	//     "netsim.collisions": 3,
	//     "netsim.dup_retransmissions": 151,
	//     "netsim.interference_hits": 0,
	//     "netsim.packets.delivered": 4298,
	//     "netsim.packets.lost": 2,
	//     "netsim.packets.released": 4300,
	//     "netsim.probes": 0,
	//     "netsim.retransmissions": 275,
	//     "netsim.retransmissions.ch11": 32,
	//     "netsim.retransmissions.ch12": 120,
	//     "netsim.retransmissions.ch13": 112,
	//     "netsim.retransmissions.ch14": 11,
	//     "netsim.runs": 2,
	//     "netsim.tx.cochannel": 400,
	//     "netsim.tx.failed": 126,
	//     "netsim.tx.fired": 12173,
	//     "sched.index.reuse_memo_hits": 76,
	//     "sched.index.reuse_memo_misses": 72,
	//     "scheduler.rc.deadline_misses": 0,
	//     "scheduler.rc.laxity_fail": 12,
	//     "scheduler.rc.laxity_fallbacks": 3,
	//     "scheduler.rc.laxity_pass": 235,
	//     "scheduler.rc.placements": 238,
	//     "scheduler.rc.reuse_placements": 3,
	//     "scheduler.rc.rho_steps": 9,
	//     "scheduler.rc.runs": 1,
	//     "scheduler.rc.slots_examined": 705
	//   },
	//   "gauges": {
	//     "manage.health": 0,
	//     "manage.mean_pdr": 1,
	//     "manage.min_pdr": 1
	//   }
	// }
}

// ExampleManage injects faults and lets the self-healing management loop
// recover. A small factory cell with route redundancy gets a fault
// scenario — a relay crash plus a four-channel interference burst — in the
// JSON form the wsansim -faults flag consumes. A plain simulation shows
// the raw damage; then the loop infers the crashed relay from link
// statistics alone, reroutes the affected flows around it, and swaps the
// jammed channels out of the hopping list. The same scenario under the same
// seed replays bit-identically, so the recovery trace is reproducible.
func ExampleManage() {
	// Sensors 0 and 3 reach actuator 5 through either relay 1 or relay 2,
	// so one relay can die.
	nodes := []wsan.Node{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}, {ID: 4}, {ID: 5}}
	good := map[[2]int]bool{
		{0, 1}: true, {1, 5}: true, // primary path 0→1→5
		{0, 2}: true, {2, 5}: true, // detour 0→2→5
		{1, 3}: true, {2, 3}: true, // sensor 3 reaches both relays
		{4, 5}: true, // bystander sensor near the actuator
	}
	tb, err := wsan.CustomTestbed("factory-cell", nodes, func(u, v, ch int) float64 {
		if good[[2]int{min(u, v), max(u, v)}] {
			return -50
		}
		return -200
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	net, err := wsan.NewNetwork(tb, 8)
	if err != nil {
		fmt.Println(err)
		return
	}
	flows := []*wsan.Flow{
		{ID: 0, Src: 0, Dst: 5, Period: 40, Deadline: 40},
		{ID: 1, Src: 3, Dst: 5, Period: 40, Deadline: 40},
	}
	if err := net.Route(flows, wsan.PeerToPeer); err != nil {
		fmt.Println(err)
		return
	}
	res, err := net.Schedule(flows, wsan.RC, wsan.ScheduleConfig{})
	if err != nil || !res.Schedulable {
		fmt.Println("workload unschedulable", err)
		return
	}
	relay := flows[0].Route[0].To
	fmt.Printf("factory cell: %d nodes on 8 channels; flow 0 relays through node %d\n",
		tb.NumNodes(), relay)

	// The relay flow 0 uses dies at slot 0, and a jammer raises the noise
	// floor on half of the hopping channels. The scenario round-trips
	// through its JSON form.
	var doc bytes.Buffer
	if err := wsan.SaveFaultScenario(&wsan.FaultScenario{
		Name: "relay-crash-plus-burst",
		Seed: 21,
		Events: []wsan.FaultEvent{
			{At: 0, Kind: wsan.FaultNodeCrash, Node: relay},
			{At: 0, Kind: wsan.FaultInterferenceStart, Channels: []int{0, 1, 2, 3}, PowerDBm: -20},
		},
	}, &doc); err != nil {
		fmt.Println(err)
		return
	}
	scenario, err := wsan.LoadFaultScenario(&doc)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("scenario %q: %d events\n\n", scenario.Name, len(scenario.Events))

	// The raw damage: the schedule under the scenario with no management.
	simCfg := net.NewSimConfig(flows, res, 200, 7)
	simCfg.Faults = scenario
	sim, err := wsan.Simulate(simCfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("unmanaged run: %d fault events applied\n", sim.FaultEvents.Total())
	for _, fl := range flows {
		fmt.Printf("  flow %d (%d→%d): PDR %.3f\n", fl.ID, fl.Src, fl.Dst, sim.PDR(fl.ID))
	}

	// The same scenario under the management loop. Each iteration observes
	// an epoch, infers crashed nodes from the link statistics (no
	// ground-truth peeking), reroutes flows around them, and blacklists
	// channels whose failure rate stands far above the cleanest channel.
	iters, err := wsan.Manage(wsan.ManageConfig{Sim: wsan.SimConfig{
		Testbed:           tb,
		Flows:             flows,
		Schedule:          res.Schedule,
		Channels:          net.Channels(),
		EpochSlots:        8_000,
		SampleWindowSlots: 400,
		Faults:            scenario,
		Seed:              13,
	}})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("\nmanaged run:")
	fmt.Println("iter  health     suspects  rerouted  blacklisted  minPDR")
	for _, it := range iters {
		fmt.Printf("%4d  %-9s  %-8s  %8d  %-11s  %.3f\n",
			it.Index+1, it.Health, fmt.Sprint(it.SuspectNodes), it.Rerouted,
			fmt.Sprint(it.Blacklisted), it.MinPDR)
	}
	last := iters[len(iters)-1]
	fmt.Printf("\nfinal health: %s; hopping channels now %v\n", last.Health, last.Channels)
	for _, fl := range flows {
		fmt.Printf("  flow %d route: %v\n", fl.ID, fl.Route)
	}
	// Output:
	// factory cell: 6 nodes on 8 channels; flow 0 relays through node 1
	// scenario "relay-crash-plus-burst": 2 events
	//
	// unmanaged run: 2 fault events applied
	//   flow 0 (0→5): PDR 0.000
	//   flow 1 (3→5): PDR 0.000
	//
	// managed run:
	// iter  health     suspects  rerouted  blacklisted  minPDR
	//    1  degraded   [1]              2  []           0.000
	//    2  degraded   []               0  [0 1]        0.000
	//    3  degraded   []               0  [2 3]        0.000
	//    4  recovered  []               0  []           1.000
	//
	// final health: recovered; hopping channels now [8 9 10 11 4 5 6 7]
	//   flow 0 route: [{0 2} {2 5}]
	//   flow 1 route: [{3 2} {2 5}]
}
