// Command wsansim regenerates the evaluation of "Conservative Channel Reuse
// in Real-Time Industrial Wireless Sensor-Actuator Networks" (ICDCS 2018):
// one subcommand per figure, plus a topology inspector.
//
// Usage:
//
//	wsansim [flags] <figure | all | ext | topo | gen-schedule | simulate |
//	                 describe | analyze-trace | manage | reschedule | validate |
//	                 serve | watch | soak>
//
// A figure is fig1..fig11 or one of the ext-* extension studies; `wsansim
// -h` lists them all (experiment.Figures is the list). "all" regenerates
// every paper figure; "ext" runs every extension study.
//
// Flags:
//
//	-trials N    random flow sets per data point (default 100; the paper's
//	             scale — use a smaller value for a quick look)
//	-seed N      workload seed (default 1)
//	-toposeed N  testbed generation seed (default 1)
//	-testbed S   for topo: which testbed to inspect (indriya|wustl)
//	-json        for topo: dump the full testbed (nodes, PRRs, gains) as JSON
//	-metrics     print a JSON metrics dump (scheduler, simulator, and
//	             management counters) after the command finishes
//	-metrics-out FILE
//	             write the JSON metrics snapshot to FILE instead of mixing
//	             it with the command output on stdout
//	-pprof ADDR  serve net/http/pprof and expvar on ADDR for the duration
//	             of the run (e.g. localhost:6060); the live metrics
//	             snapshot is published as the "wsan_metrics" expvar
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"wsan/internal/experiment"
	"wsan/internal/jobs"
	"wsan/internal/obs"
	"wsan/internal/scheduler"
	"wsan/wsanclient"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wsansim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wsansim", flag.ContinueOnError)
	trials := fs.Int("trials", 100, "random flow sets per data point")
	seed := fs.Int64("seed", 1, "workload seed")
	topoSeed := fs.Int64("toposeed", 1, "testbed generation seed")
	testbed := fs.String("testbed", "wustl", "testbed for the topo command (indriya|wustl)")
	asJSON := fs.Bool("json", false, "topo: dump the full testbed as JSON")
	workers := fs.Int("workers", 0, "parallel trials per data point (0 = all CPUs; timing figures always run serially)")
	format := fs.String("format", "table", "output format: table, csv, or chart:N (bar chart of column N)")
	metrics := fs.Bool("metrics", false, "print a JSON metrics dump after the command")
	metricsOut := fs.String("metrics-out", "", "write the JSON metrics snapshot to this file after the command")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and expvar on this address during the run")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), usage())
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return fmt.Errorf("a command is required")
	}
	cmd := fs.Arg(0)
	hasOwnFlags := cmd != "topo" && slices.Contains(tools, cmd)
	if fs.NArg() > 1 && !hasOwnFlags {
		// Accept global flags after the command too (wsansim fig3 -trials 2):
		// re-parse the remainder into the same flag set.
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return err
		}
		if fs.NArg() > 0 {
			fs.Usage()
			return fmt.Errorf("command %q takes no arguments", cmd)
		}
	}
	if *trials < 1 {
		return fmt.Errorf("-trials must be at least 1, got %d", *trials)
	}
	opt := experiment.Options{Trials: *trials, Seed: *seed, Workers: *workers}

	// One registry serves both observability surfaces: the -metrics dump at
	// exit and the live expvar snapshot under -pprof. mets stays nil when
	// neither flag is given, keeping every instrumented loop on its no-op
	// fast path.
	var reg *obs.Registry
	var mets obs.Sink
	if *metrics || *metricsOut != "" || *pprofAddr != "" {
		reg = obs.NewRegistry()
		mets = reg
		preregister(reg)
	}
	if *pprofAddr != "" {
		expvar.Publish("wsan_metrics", expvar.Func(func() any { return reg.Snapshot() }))
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "wsansim: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof and expvar serving on http://%s/debug/pprof/\n", *pprofAddr)
	}
	err := dispatch(cmd, fs, opt, mets, *testbed, *topoSeed, *asJSON, *format)
	if reg != nil && *metrics {
		fmt.Println("== metrics ==")
		if werr := reg.WriteJSON(os.Stdout); werr != nil && err == nil {
			err = werr
		}
		fmt.Println()
	}
	if reg != nil && *metricsOut != "" {
		if werr := writeMetricsFile(reg, *metricsOut); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// writeMetricsFile dumps the registry snapshot to a file, keeping the
// command's stdout clean for its own output.
func writeMetricsFile(reg *obs.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics-out: %w", err)
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("metrics-out: %w", err)
	}
	return f.Close()
}

// preregister pins the headline counter names into the registry so a
// metrics dump always carries the full schema — a figure that never
// simulates still reports netsim.collisions as an explicit 0 rather than
// omitting the key.
func preregister(reg *obs.Registry) {
	for _, alg := range []scheduler.Algorithm{scheduler.NR, scheduler.RA, scheduler.RC} {
		prefix := "scheduler." + strings.ToLower(alg.String()) + "."
		for _, name := range []string{"runs", "placements", "reuse_placements", "slots_examined"} {
			reg.Count(prefix+name, 0)
		}
	}
	for _, name := range []string{
		"netsim.runs", "netsim.tx.fired", "netsim.tx.failed", "netsim.collisions",
		"netsim.capture_wins", "netsim.interference_hits", "netsim.retransmissions",
		"manage.iterations", "repair.runs",
	} {
		reg.Count(name, 0)
	}
}

// dispatch runs one CLI command with the shared metrics sink attached to
// every environment it builds.
func dispatch(cmd string, fs *flag.FlagSet, opt experiment.Options, mets obs.Sink, testbed string, topoSeed int64, asJSON bool, format string) error {
	switch cmd {
	case "topo":
		return runTopo(testbed, topoSeed, asJSON, opt, mets)
	case "gen-schedule":
		return runGenSchedule(fs.Args()[1:], mets)
	case "simulate":
		return runSimulate(fs.Args()[1:], mets)
	case "describe":
		return runDescribe(fs.Args()[1:])
	case "analyze-trace":
		return runAnalyzeTrace(fs.Args()[1:])
	case "manage":
		return runManage(fs.Args()[1:], mets)
	case "reschedule":
		return runReschedule(fs.Args()[1:], mets)
	case "validate":
		return runValidate(fs.Args()[1:])
	case "serve":
		return runServe(fs.Args()[1:], mets)
	case "watch":
		return runWatch(fs.Args()[1:])
	case "soak":
		return runSoak(fs.Args()[1:], mets)
	}

	envs := make(map[string]*experiment.Env, 2)
	getEnv := func(name string) (*experiment.Env, error) {
		if env, ok := envs[name]; ok {
			return env, nil
		}
		var env *experiment.Env
		var err error
		if name == "indriya" {
			env, err = experiment.NewIndriyaEnv(topoSeed)
		} else {
			env, err = experiment.NewWUSTLEnv(topoSeed)
		}
		if err != nil {
			return nil, err
		}
		env.Metrics = mets
		envs[name] = env
		return env, nil
	}
	figures := selectFigures(cmd)
	if len(figures) == 0 {
		fs.Usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
	for _, f := range figures {
		env, err := getEnv(f.Testbed)
		if err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
		start := time.Now()
		tables, err := f.Run(env, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
		for _, t := range tables {
			if err := render(t, format); err != nil {
				return err
			}
		}
		fmt.Printf("(%s completed in %v)\n\n", f.Name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// tools are the commands other than figures; all but topo parse their own
// flags.
var tools = []string{"topo", "gen-schedule", "simulate", "describe", "analyze-trace",
	"manage", "reschedule", "validate", "serve", "watch", "soak"}

// usage is the command synopsis, listing every registered figure.
func usage() string {
	cmds := []string{"all", "ext"}
	for _, f := range experiment.Figures {
		cmds = append(cmds, f.Name)
	}
	return "usage: wsansim [flags] <" + strings.Join(append(cmds, tools...), " | ") + ">"
}

// selectFigures returns the registered figures a command runs: "all" is
// every paper figure, "ext" every ext-* study, a figure name that figure.
func selectFigures(cmd string) []experiment.Figure {
	var out []experiment.Figure
	for _, f := range experiment.Figures {
		isExt := strings.HasPrefix(f.Name, "ext-")
		if cmd == f.Name || cmd == "all" && !isExt || cmd == "ext" && isExt {
			out = append(out, f)
		}
	}
	return out
}

// render writes one result table in the requested format.
func render(t *experiment.Table, format string) error {
	switch {
	case format == "table" || format == "":
		fmt.Println(t.String())
	case format == "csv":
		if err := t.WriteCSV(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	case strings.HasPrefix(format, "chart:"):
		col, err := strconv.Atoi(strings.TrimPrefix(format, "chart:"))
		if err != nil {
			return fmt.Errorf("bad chart column in %q: %w", format, err)
		}
		fmt.Println(t.Chart(col, 40))
	default:
		return fmt.Errorf("unknown format %q (want table, csv, or chart:N)", format)
	}
	return nil
}

func runTopo(name string, seed int64, asJSON bool, opt experiment.Options, mets obs.Sink) error {
	nw, err := jobs.NewNetwork(wsanclient.CreateNetworkRequest{Preset: name, TopoSeed: seed})
	if err != nil {
		return err
	}
	if asJSON {
		_, err := os.Stdout.Write(nw.Survey)
		return err
	}
	env := experiment.NewEnv(nw.Net.Testbed())
	env.Metrics = mets
	tables, err := experiment.Fig7(env, opt)
	if err != nil {
		return err
	}
	for _, t := range tables {
		fmt.Println(t.String())
	}
	return nil
}
