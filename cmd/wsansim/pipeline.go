package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"wsan"
	"wsan/internal/analysis"
	"wsan/internal/flow"
	"wsan/internal/manage"
	"wsan/internal/netsim"
	"wsan/internal/obs"
	"wsan/internal/routing"
	"wsan/internal/schedule"
	"wsan/internal/stats"
	"wsan/internal/topology"
)

// The pipeline subcommands turn wsansim into a small toolchain around JSON
// artifacts, mirroring a network manager's operational steps:
//
//	wsansim gen-schedule -testbed wustl -flows 30 -alg rc -out dir/
//	wsansim simulate -dir dir/ -reps 100
//
// gen-schedule writes survey.json, workload.json, and schedule.json;
// simulate loads them back and executes the schedule.

// runGenSchedule implements the gen-schedule subcommand.
func runGenSchedule(args []string, mets obs.Sink) error {
	fs := flag.NewFlagSet("gen-schedule", flag.ContinueOnError)
	testbed := fs.String("testbed", "wustl", "testbed to generate (indriya|wustl)")
	topoSeed := fs.Int64("toposeed", 1, "testbed generation seed")
	seed := fs.Int64("seed", 1, "workload seed")
	numFlows := fs.Int("flows", 30, "number of flows")
	channels := fs.Int("channels", 4, "number of channels")
	traffic := fs.String("traffic", "p2p", "traffic pattern (p2p|centralized)")
	alg := fs.String("alg", "rc", "scheduler (nr|ra|rc)")
	minExp := fs.Int("minperiod", 0, "minimum period exponent (2^x s)")
	maxExp := fs.Int("maxperiod", 2, "maximum period exponent (2^y s)")
	targetPDR := fs.Float64("target-pdr", 0, "per-flow delivery-probability target; plans per-hop retransmission budgets (0 = uniform retries)")
	out := fs.String("out", ".", "output directory for the JSON artifacts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tb, err := makeTestbed(*testbed, *topoSeed)
	if err != nil {
		return err
	}
	net, err := wsan.NewNetwork(tb, *channels)
	if err != nil {
		return err
	}
	tr, err := wsan.ParseTraffic(*traffic)
	if err != nil {
		return err
	}
	algorithm, err := wsan.ParseAlgorithm(*alg)
	if err != nil {
		return err
	}
	flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows:     *numFlows,
		MinPeriodExp: *minExp,
		MaxPeriodExp: *maxExp,
		Traffic:      tr,
		Seed:         *seed,
	})
	if err != nil {
		return err
	}
	if *targetPDR > 0 {
		assigns, err := net.ApplyReliabilityTargets(flows, *targetPDR, 0, mets)
		if err != nil {
			return err
		}
		slots, infeasible := 0, 0
		for _, a := range assigns {
			slots += a.Plan.TotalSlots
			if !a.Plan.Feasible {
				infeasible++
			}
		}
		fmt.Printf("reliability target %.4f: budgeted %d flows over %d tx slots (%d infeasible, best-effort)\n",
			*targetPDR, len(assigns), slots, infeasible)
	}
	res, err := net.Schedule(flows, algorithm, wsan.ScheduleConfig{Metrics: mets})
	if err != nil {
		return err
	}
	if !res.Schedulable {
		return fmt.Errorf("workload not schedulable under %v (flow %d missed its deadline)",
			algorithm, res.FailedFlow)
	}
	if err := writeArtifact(*out, "survey.json", tb.Encode); err != nil {
		return err
	}
	if err := writeArtifact(*out, "workload.json", func(w io.Writer) error {
		return flow.EncodeWorkload(w, flows)
	}); err != nil {
		return err
	}
	if err := writeArtifact(*out, "schedule.json", res.Schedule.Encode); err != nil {
		return err
	}
	fmt.Printf("%v schedule: %d transmissions in %d slots on %d channels (took %v)\n",
		algorithm, res.Schedule.Len(), res.Schedule.NumSlots(), *channels,
		res.Elapsed.Round(10e3))
	fmt.Printf("artifacts: %s/{survey,workload,schedule}.json\n", *out)
	return nil
}

// runSimulate implements the simulate subcommand.
func runSimulate(args []string, mets obs.Sink) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	dir := fs.String("dir", ".", "directory holding the gen-schedule artifacts")
	reps := fs.Int("reps", 100, "hyperperiod executions")
	seed := fs.Int64("seed", 1, "simulation seed")
	fading := fs.Float64("fading", 2.5, "per-slot fading σ (dB)")
	drift := fs.Float64("drift", 2.5, "survey-to-runtime drift σ (dB)")
	channels := fs.Int("channels", 4, "number of channels the schedule uses")
	tracePath := fs.String("trace", "", "write a JSONL event trace to this file")
	faultsPath := fs.String("faults", "", "fault-scenario JSON to inject during the run")
	targetPDR := fs.Float64("target-pdr", 0, "report achieved PDR against this target (0 = use per-flow targets from workload.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scenario, err := loadFaults(*faultsPath)
	if err != nil {
		return err
	}
	tb, err := readArtifact(*dir, "survey.json", topology.Decode)
	if err != nil {
		return err
	}
	flows, err := readArtifact(*dir, "workload.json", flow.DecodeWorkload)
	if err != nil {
		return err
	}
	sched, err := readArtifact(*dir, "schedule.json", schedule.Decode)
	if err != nil {
		return err
	}
	simCfg := wsan.SimConfig{
		Testbed:            tb,
		Flows:              flows,
		Schedule:           sched,
		Channels:           topology.Channels(*channels),
		Hyperperiods:       *reps,
		FadingSigmaDB:      *fading,
		SurveyDriftSigmaDB: *drift,
		Retransmit:         true,
		Metrics:            mets,
		Seed:               *seed,
		Faults:             scenario,
	}
	if *tracePath != "" {
		tf, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer tf.Close()
		simCfg.Trace = tf
	}
	res, err := wsan.Simulate(simCfg)
	if err != nil {
		return err
	}
	fn, err := stats.Summary(res.PDRs())
	if err != nil {
		return err
	}
	fmt.Printf("executed %d hyperperiods over %d flows\n", *reps, len(flows))
	fmt.Printf("per-flow PDR: %s\n", fn)
	if scenario != nil {
		fmt.Printf("fault events applied: %d\n", res.FaultEvents.Total())
	}
	pdrs := res.PDRs()
	targeted, met := 0, 0
	var misses []string
	for i, f := range flows {
		target := f.TargetPDR
		if *targetPDR > 0 {
			target = *targetPDR
		}
		if target <= 0 || i >= len(pdrs) {
			continue
		}
		targeted++
		if pdrs[i] >= target {
			met++
		} else {
			misses = append(misses, fmt.Sprintf("flow %d: %.4f < %.4f", f.ID, pdrs[i], target))
		}
	}
	if targeted > 0 {
		fmt.Printf("reliability targets: %d/%d flows met their target PDR\n", met, targeted)
		for _, m := range misses {
			fmt.Printf("  miss  %s\n", m)
		}
	}
	return nil
}

// loadFaults reads a fault scenario when path is non-empty.
func loadFaults(path string) (*wsan.FaultScenario, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc, err := wsan.LoadFaultScenario(f)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return sc, nil
}

// makeTestbed generates the named preset testbed (the -testbed flag).
func makeTestbed(name string, seed int64) (*wsan.Testbed, error) {
	generate, ok := wsan.TestbedPreset(name)
	if !ok {
		return nil, fmt.Errorf("unknown testbed %q (want indriya or wustl)", name)
	}
	return generate(seed)
}

func writeArtifact(dir, name string, encode func(io.Writer) error) error {
	path := dir + string(os.PathSeparator) + name
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encode(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func readArtifact[T any](dir, name string, decode func(io.Reader) (T, error)) (T, error) {
	path := dir + string(os.PathSeparator) + name
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	v, err := decode(f)
	if err != nil {
		var zero T
		return zero, fmt.Errorf("read %s: %w", path, err)
	}
	return v, nil
}

// runDescribe implements the describe subcommand: it loads a gen-schedule
// artifact directory and prints the slotframe matrix plus the per-device
// link schedule of one node — the dissemination view.
func runDescribe(args []string) error {
	fs := flag.NewFlagSet("describe", flag.ContinueOnError)
	dir := fs.String("dir", ".", "directory holding the gen-schedule artifacts")
	from := fs.Int("from", 0, "first slot of the rendered window")
	span := fs.Int("span", 25, "how many slots to render")
	node := fs.Int("node", -1, "also print this device's link schedule")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sched, err := readArtifact(*dir, "schedule.json", schedule.Decode)
	if err != nil {
		return err
	}
	fmt.Printf("slotframe: %d slots × %d offsets, %d transmissions\n\n",
		sched.NumSlots(), sched.NumOffsets(), sched.Len())
	if err := sched.Render(os.Stdout, *from, *from+*span); err != nil {
		return err
	}
	if *node >= 0 {
		fmt.Printf("\ndevice %d link schedule (duty cycle %.1f%%):\n",
			*node, sched.DutyCycle(*node)*100)
		fmt.Println("slot  offset  role  peer  flow  shared")
		for _, ds := range sched.DeviceSchedule(*node) {
			fmt.Printf("%4d  %6d  %4s  %4d  %4d  %v\n",
				ds.Slot, ds.Offset, ds.Role, ds.Peer, ds.FlowID, ds.Shared)
		}
	}
	return nil
}

// runAnalyzeTrace implements the analyze-trace subcommand: it reads a JSONL
// event trace written by `simulate -trace` and prints per-link delivery
// statistics split by schedule condition (exclusive vs shared cell).
func runAnalyzeTrace(args []string) error {
	fs := flag.NewFlagSet("analyze-trace", flag.ContinueOnError)
	file := fs.String("file", "", "trace file (JSONL); required")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("analyze-trace: -file is required")
	}
	f, err := os.Open(*file)
	if err != nil {
		return err
	}
	defer f.Close()
	type acc struct {
		att, ok, reuseAtt, reuseOK, dups int
	}
	links := make(map[[2]int]*acc)
	dec := json.NewDecoder(f)
	events := 0
	for dec.More() {
		var ev netsim.TraceEvent
		if err := dec.Decode(&ev); err != nil {
			return fmt.Errorf("analyze-trace: event %d: %w", events, err)
		}
		events++
		key := [2]int{ev.From, ev.To}
		a := links[key]
		if a == nil {
			a = &acc{}
			links[key] = a
		}
		a.att++
		if ev.DataOK {
			a.ok++
		}
		if ev.Reuse {
			a.reuseAtt++
			if ev.DataOK {
				a.reuseOK++
			}
		}
		if ev.Duplicate {
			a.dups++
		}
	}
	keys := make([][2]int, 0, len(links))
	for k := range links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	fmt.Printf("%d events over %d links\n\n", events, len(links))
	fmt.Println("link        tx     PRR    reuse-tx  reuse-PRR  dup-retries")
	for _, k := range keys {
		a := links[k]
		reusePRR := "-"
		if a.reuseAtt > 0 {
			reusePRR = fmt.Sprintf("%.3f", float64(a.reuseOK)/float64(a.reuseAtt))
		}
		fmt.Printf("%3d->%-4d  %5d  %.3f  %8d  %9s  %11d\n",
			k[0], k[1], a.att, float64(a.ok)/float64(a.att), a.reuseAtt, reusePRR, a.dups)
	}
	return nil
}

// runManage implements the manage subcommand: it loads gen-schedule
// artifacts and runs the closed observe→classify→repair loop, printing one
// line per iteration and writing the updated schedule back.
func runManage(args []string, mets obs.Sink) error {
	fs := flag.NewFlagSet("manage", flag.ContinueOnError)
	dir := fs.String("dir", ".", "directory holding the gen-schedule artifacts")
	channels := fs.Int("channels", 4, "number of channels the schedule uses")
	iterations := fs.Int("iterations", 3, "maximum management iterations")
	epochSlots := fs.Int("epoch", 90_000, "observation slots per iteration")
	seed := fs.Int64("seed", 1, "simulation seed")
	faultsPath := fs.String("faults", "", "fault-scenario JSON to inject during the loop")
	targetPDR := fs.Float64("target-pdr", 0, "per-flow delivery-probability target driving runtime re-budgeting (0 = targets from workload.json)")
	parole := fs.Int("parole", 0, "clean iterations before a blacklisted channel is rehabilitated (0 = permanent blacklist)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scenario, err := loadFaults(*faultsPath)
	if err != nil {
		return err
	}
	tb, err := readArtifact(*dir, "survey.json", topology.Decode)
	if err != nil {
		return err
	}
	flows, err := readArtifact(*dir, "workload.json", flow.DecodeWorkload)
	if err != nil {
		return err
	}
	sched, err := readArtifact(*dir, "schedule.json", schedule.Decode)
	if err != nil {
		return err
	}
	if *targetPDR > 0 {
		for _, f := range flows {
			f.TargetPDR = *targetPDR
		}
	}
	chs := topology.Channels(*channels)
	linkPRR := func(l flow.Link) float64 {
		sum := 0.0
		for _, ch := range chs {
			sum += tb.PRR(l.From, l.To, ch)
		}
		return sum / float64(len(chs))
	}
	iters, err := manage.Loop(manage.Config{
		Testbed:                        tb,
		Flows:                          flows,
		Schedule:                       sched,
		Channels:                       chs,
		EpochSlots:                     *epochSlots,
		SampleWindowSlots:              *epochSlots / 18,
		ProbeEverySlots:                250,
		FadingSigmaDB:                  2.5,
		SurveyDriftSigmaDB:             2.5,
		MaxIterations:                  *iterations,
		CompactAfterRepair:             true,
		BlacklistParoleCleanIterations: *parole,
		LinkPRR:                        linkPRR,
		Metrics:                        mets,
		Seed:                           *seed,
		Faults:                         scenario,
	})
	if err != nil {
		return err
	}
	fmt.Println("iter  health     degraded  moved  rerouted  blacklist  rehab  rebudget  shed  shortfall  delta  devices  minPDR  meanPDR")
	for _, it := range iters {
		fmt.Printf("%4d  %-9s  %8d  %5d  %8d  %9d  %5d  %8d  %4d  %9d  %5d  %7d  %.3f   %.3f\n",
			it.Index+1, it.Health, it.Degraded, it.Moved, it.Rerouted,
			len(it.Blacklisted), len(it.Rehabilitated), it.Rebudgeted, it.RetriesShed,
			len(it.Shortfalls), it.DeltaChanges, it.AffectedDevices, it.MinPDR, it.MeanPDR)
	}
	for _, it := range iters {
		for _, sf := range it.Shortfalls {
			fmt.Printf("shortfall (iter %d): flow %d predicted %.4f < target %.4f\n",
				it.Index+1, sf.FlowID, sf.Predicted, sf.Target)
		}
	}
	// Persist the managed schedule.
	if err := writeArtifact(*dir, "schedule.json", sched.Encode); err != nil {
		return err
	}
	fmt.Printf("updated schedule written to %s/schedule.json\n", *dir)
	return nil
}

// runValidate implements the validate subcommand: it re-derives every
// invariant of a gen-schedule artifact set — route well-formedness against
// the survey's communication graph, schedule structure (conflicts, reuse
// constraints at ρ_t=2), deadline compliance, and the delay-bound admission
// view — and reports pass/fail per check.
func runValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	dir := fs.String("dir", ".", "directory holding the gen-schedule artifacts")
	channels := fs.Int("channels", 4, "number of channels the schedule uses")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tb, err := readArtifact(*dir, "survey.json", topology.Decode)
	if err != nil {
		return err
	}
	flows, err := readArtifact(*dir, "workload.json", flow.DecodeWorkload)
	if err != nil {
		return err
	}
	sched, err := readArtifact(*dir, "schedule.json", schedule.Decode)
	if err != nil {
		return err
	}
	failures := 0
	check := func(name string, err error) {
		if err != nil {
			failures++
			fmt.Printf("FAIL  %-28s %v\n", name, err)
			return
		}
		fmt.Printf("ok    %s\n", name)
	}
	chs := topology.Channels(*channels)
	gc, err := tb.CommGraph(chs, 0.9)
	if err != nil {
		return err
	}
	gr, err := tb.ReuseGraph(chs)
	if err != nil {
		return err
	}
	routeErr := func() error {
		// Traffic type is not stored in the artifacts; accept a centralized
		// wired break only when the plain validation fails both ways.
		for _, f := range flows {
			p2p := routing.Validate(f, gc, routing.Config{Traffic: routing.PeerToPeer})
			if p2p == nil {
				continue
			}
			return fmt.Errorf("flow %d: %v", f.ID, p2p)
		}
		return nil
	}()
	check("routes over communication graph", routeErr)
	check("schedule constraints (ρ_t=2)", sched.Validate(gr.AllPairsHop(), 2))
	check("deadlines and route order", func() error {
		lats, err := analysis.Latencies(flows, sched)
		if err != nil {
			return err
		}
		for _, l := range lats {
			if l.Slack() < 0 {
				return fmt.Errorf("flow %d misses its deadline by %d slots", l.FlowID, -l.Slack())
			}
		}
		return nil
	}())
	check("utilization within capacity", func() error {
		u, err := analysis.ComputeUtilization(flows, *channels, 2)
		if err != nil {
			return err
		}
		if u.BottleneckNode > 1 {
			return fmt.Errorf("node %d over 100%% utilization", u.BottleneckID)
		}
		return nil
	}())
	if failures > 0 {
		return fmt.Errorf("%d validation checks failed", failures)
	}
	fmt.Println("all checks passed")
	return nil
}
