package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"wsan"
	"wsan/internal/analysis"
	"wsan/internal/jobs"
	"wsan/internal/netsim"
	"wsan/internal/obs"
	"wsan/internal/routing"
	"wsan/internal/schedule"
	"wsan/wsanclient"
)

// The pipeline subcommands turn wsansim into a small toolchain around JSON
// artifacts, mirroring a network manager's operational steps:
//
//	wsansim gen-schedule -testbed wustl -flows 30 -alg rc -out dir/
//	wsansim simulate -dir dir/ -reps 100
//
// gen-schedule, simulate, manage and reschedule are adapters over the
// daemon's job kinds (internal/jobs): flags → parameter document → run the
// kind → write every part it returns into the directory → print a summary
// read back from those parts. The artifacts are byte-identical to the
// daemon's artifact parts of the same name.

// dirEnv builds the job environment of an artifact directory: the network
// its survey.json describes on the given channel count, and its schedule
// bundle (the directory itself is the bundle reference). The bundle's
// survey part is the network's canonical survey; only workload.json and
// schedule.json are read as bundle parts.
func dirEnv(dir string, channels int, mets obs.Sink) (*jobs.Env, error) {
	survey, err := os.ReadFile(filepath.Join(dir, "survey.json"))
	if err != nil {
		return nil, err
	}
	nw, err := jobs.NewNetwork(wsanclient.CreateNetworkRequest{Testbed: survey, Channels: channels})
	if err != nil {
		return nil, err
	}
	parts := jobs.Parts{"survey.json": nw.Survey}
	for _, name := range []string{"workload.json", "schedule.json"} {
		if parts[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			return nil, err
		}
	}
	return &jobs.Env{
		Network: nw,
		Lookup:  func(string) (jobs.Bundle, error) { return parts, nil },
		Metrics: mets,
	}, nil
}

// writeParts writes every part into dir, creating it if needed, and returns
// their paths in the dir/{a,b}.json shorthand.
func writeParts(dir string, parts jobs.Parts) (string, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return "", err
	}
	names := make([]string, 0, len(parts))
	for name, b := range parts {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o666); err != nil {
			return "", err
		}
		names = append(names, strings.TrimSuffix(name, ".json"))
	}
	sort.Strings(names)
	if len(names) == 1 {
		return filepath.Join(dir, names[0]+".json"), nil
	}
	return dir + string(os.PathSeparator) + "{" + strings.Join(names, ",") + "}.json", nil
}

// runGenSchedule implements the gen-schedule subcommand: the schedule job.
func runGenSchedule(args []string, mets obs.Sink) error {
	p := jobs.Defaults(&jobs.ScheduleParams{})
	fs := flag.NewFlagSet("gen-schedule", flag.ContinueOnError)
	testbed := fs.String("testbed", "wustl", "testbed to generate (indriya|wustl)")
	topoSeed := fs.Int64("toposeed", jobs.DefaultTopoSeed, "testbed generation seed")
	fs.Int64Var(&p.Seed, "seed", p.Seed, "workload seed")
	fs.IntVar(&p.Flows, "flows", p.Flows, "number of flows")
	channels := fs.Int("channels", jobs.DefaultChannels, "number of channels")
	fs.StringVar(&p.Traffic, "traffic", p.Traffic, "traffic pattern (p2p|centralized)")
	fs.StringVar(&p.Alg, "alg", p.Alg, "scheduler (nr|ra|rc)")
	fs.IntVar(&p.MinPeriodExp, "minperiod", p.MinPeriodExp, "minimum period exponent (2^x s)")
	fs.IntVar(p.MaxPeriodExp, "maxperiod", *p.MaxPeriodExp, "maximum period exponent (2^y s)")
	fs.Float64Var(&p.TargetPDR, "target-pdr", 0, "per-flow delivery-probability target; plans per-hop retransmission budgets (0 = uniform retries)")
	out := fs.String("out", ".", "output directory for the JSON artifacts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	nw, err := jobs.NewNetwork(wsanclient.CreateNetworkRequest{
		Preset: *testbed, TopoSeed: *topoSeed, Channels: *channels,
	})
	if err != nil {
		return err
	}
	parts, err := jobs.Exec(context.Background(), &jobs.Env{Network: nw, Metrics: mets}, p)
	if err != nil {
		return err
	}
	written, err := writeParts(*out, parts)
	if err != nil {
		return err
	}
	var sum struct {
		Algorithm                             string
		Flows, Transmissions, Slots, Channels int
		TargetPDR                             float64
		BudgetSlots, BudgetInfeasible         int
	}
	if err := json.Unmarshal(parts["summary.json"], &sum); err != nil {
		return err
	}
	if sum.TargetPDR > 0 {
		fmt.Printf("reliability target %.4f: budgeted %d flows over %d tx slots (%d infeasible, best-effort)\n",
			sum.TargetPDR, sum.Flows, sum.BudgetSlots, sum.BudgetInfeasible)
	}
	fmt.Printf("%s schedule: %d transmissions in %d slots on %d channels\n",
		strings.ToUpper(sum.Algorithm), sum.Transmissions, sum.Slots, sum.Channels)
	fmt.Printf("artifacts: %s\n", written)
	return nil
}

// runSimulate implements the simulate subcommand: the simulate job.
func runSimulate(args []string, mets obs.Sink) error {
	p := jobs.Defaults(&jobs.SimulateParams{Fading: new(float64), Drift: new(float64)})
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	fs.StringVar(&p.Artifact, "dir", ".", "directory holding the gen-schedule artifacts")
	fs.IntVar(&p.Hyperperiods, "reps", p.Hyperperiods, "hyperperiod executions")
	fs.Int64Var(&p.Seed, "seed", p.Seed, "simulation seed")
	fs.Float64Var(p.Fading, "fading", jobs.DefaultSigmaDB, "per-slot fading σ (dB)")
	fs.Float64Var(p.Drift, "drift", jobs.DefaultSigmaDB, "survey-to-runtime drift σ (dB)")
	channels := fs.Int("channels", jobs.DefaultChannels, "number of channels the schedule uses")
	tracePath := fs.String("trace", "", "write a JSONL event trace to this file")
	faultsPath := fs.String("faults", "", "fault-scenario JSON to inject during the run")
	targetPDR := fs.Float64("target-pdr", 0, "report achieved PDR against this target (0 = use per-flow targets from workload.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var err error
	if p.Faults, err = loadFaults(*faultsPath); err != nil {
		return err
	}
	env, err := dirEnv(p.Artifact, *channels, mets)
	if err != nil {
		return err
	}
	if *tracePath != "" {
		tf, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer tf.Close()
		env.Trace = tf
	}
	parts, err := jobs.Exec(context.Background(), env, p)
	if err != nil {
		return err
	}
	if tf, ok := env.Trace.(*os.File); ok {
		if err := tf.Close(); err != nil {
			return err
		}
	}
	written, err := writeParts(p.Artifact, parts)
	if err != nil {
		return err
	}
	var rep jobs.SimReport
	if err := json.Unmarshal(parts["report.json"], &rep); err != nil {
		return err
	}
	flows, _, err := env.LoadBundle(p.Artifact)
	if err != nil {
		return err
	}
	fmt.Printf("executed %d hyperperiods over %d flows\n", rep.Hyperperiods, rep.Flows)
	fmt.Printf("per-flow PDR: %s\n", rep.PDRSummary)
	if p.Faults != nil {
		fmt.Printf("fault events applied: %d\n", rep.FaultEvents)
	}
	targeted, met := 0, 0
	var misses []string
	for i, f := range flows {
		target := f.TargetPDR
		if *targetPDR > 0 {
			target = *targetPDR
		}
		if target <= 0 {
			continue
		}
		targeted++
		if pdr := rep.PerFlow[i].PDR; pdr >= target {
			met++
		} else {
			misses = append(misses, fmt.Sprintf("flow %d: %.4f < %.4f", f.ID, pdr, target))
		}
	}
	if targeted > 0 {
		fmt.Printf("reliability targets: %d/%d flows met their target PDR\n", met, targeted)
		for _, m := range misses {
			fmt.Printf("  miss  %s\n", m)
		}
	}
	fmt.Printf("report: %s\n", written)
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
	f, err := os.Open(filepath.Join(*dir, "schedule.json"))
	if err != nil {
		return err
	}
	defer f.Close()
	sched, err := schedule.Decode(f)
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

// runManage implements the manage subcommand: the manage job. It runs the
// closed observe→classify→repair loop over the directory's artifacts,
// prints one line per iteration, and writes the managed schedule, the
// (possibly re-budgeted) workload and the iteration log back.
func runManage(args []string, mets obs.Sink) error {
	p := jobs.Defaults(&jobs.ManageParams{})
	fs := flag.NewFlagSet("manage", flag.ContinueOnError)
	fs.StringVar(&p.Artifact, "dir", ".", "directory holding the gen-schedule artifacts")
	channels := fs.Int("channels", jobs.DefaultChannels, "number of channels the schedule uses")
	fs.IntVar(&p.MaxIterations, "iterations", p.MaxIterations, "maximum management iterations")
	fs.IntVar(&p.EpochSlots, "epoch", p.EpochSlots, "observation slots per iteration")
	fs.Int64Var(&p.Seed, "seed", p.Seed, "simulation seed")
	faultsPath := fs.String("faults", "", "fault-scenario JSON to inject during the loop")
	fs.Float64Var(&p.TargetPDR, "target-pdr", 0, "per-flow delivery-probability target driving runtime re-budgeting (0 = targets from workload.json)")
	fs.IntVar(&p.ParoleCleanIterations, "parole", 0, "clean iterations before a blacklisted channel is rehabilitated (0 = permanent blacklist)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var err error
	if p.Faults, err = loadFaults(*faultsPath); err != nil {
		return err
	}
	env, err := dirEnv(p.Artifact, *channels, mets)
	if err != nil {
		return err
	}
	parts, err := jobs.Exec(context.Background(), env, p)
	if err != nil {
		return err
	}
	var iters []wsan.ManageIteration
	if err := json.Unmarshal(parts["iterations.json"], &iters); err != nil {
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
	written, err := writeParts(p.Artifact, parts)
	if err != nil {
		return err
	}
	fmt.Printf("updated artifacts written to %s\n", written)
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
	channels := fs.Int("channels", jobs.DefaultChannels, "number of channels the schedule uses")
	if err := fs.Parse(args); err != nil {
		return err
	}
	env, err := dirEnv(*dir, *channels, nil)
	if err != nil {
		return err
	}
	flows, res, err := env.LoadBundle(*dir)
	if err != nil {
		return err
	}
	sched := res.Schedule
	failures := 0
	check := func(name string, err error) {
		if err != nil {
			failures++
			fmt.Printf("FAIL  %-28s %v\n", name, err)
			return
		}
		fmt.Printf("ok    %s\n", name)
	}
	tb, chs := env.Net.Testbed(), env.Net.Channels()
	gc, err := tb.CommGraph(chs, 0.9)
	if err != nil {
		return err
	}
	gr, err := tb.ReuseGraph(chs)
	if err != nil {
		return err
	}
	// The centralized rule allows one wired break, and only between access
	// points, so peer-to-peer routes pass it too.
	rcfg := routing.Config{Traffic: routing.Centralized, APs: env.Net.AccessPoints()}
	check("routes over communication graph", func() error {
		for _, f := range flows {
			if err := routing.Validate(f, gc, rcfg); err != nil {
				return fmt.Errorf("flow %d: %v", f.ID, err)
			}
		}
		return nil
	}())
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
	check("retransmission budgets", checkBudgets(flows, res))
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

// checkBudgets verifies that every flow hop holds (slotframe / period) ×
// HopAttempts(hop, fallback) transmissions, the fallback being the retry
// depth the schedule was built with: a workload whose retransmission
// budgets disagree with the schedule fails.
func checkBudgets(flows []*wsan.Flow, res *wsan.ScheduleResult) error {
	sched, fallback := res.Schedule, jobs.RetryAttempts(res)
	held := make(map[[2]int]int)
	for _, tx := range sched.Txs() {
		held[[2]int{tx.FlowID, tx.Hop}]++
	}
	bad, hops := 0, 0
	var first error
	for _, f := range flows {
		if len(f.TxBudget) > 0 && len(f.TxBudget) != len(f.Route) {
			return fmt.Errorf("flow %d has a %d-hop budget on a %d-hop route", f.ID, len(f.TxBudget), len(f.Route))
		}
		for h := range f.Route {
			hops++
			want := sched.NumSlots() / f.Period * f.HopAttempts(h, fallback)
			if n := held[[2]int{f.ID, h}]; n != want {
				bad++
				if first == nil {
					first = fmt.Errorf("flow %d hop %d holds %d transmissions, want %d", f.ID, h, n, want)
				}
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d flow hops off budget; %w", bad, hops, first)
	}
	return nil
}
