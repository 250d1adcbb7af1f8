// Command bench is the repository's end-to-end benchmark. It drives four
// workloads through the network manager's layers — whole-workload admission
// (plan-100f), live flow churn (churn-500f), the observe→classify→repair
// loop (observe-repair) and the daemon under open-loop traffic
// (daemon-mix) — checks every output with an oracle, and reports the
// end-to-end metrics of an untraced run or the per-layer metrics of a
// traced one. See README.md.
//
//	bash bench/run.sh --workload plan-100f --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the run's JSON result; the exit
// status is non-zero when any operation failed or any oracle disagreed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() { os.Exit(benchMain(os.Args[1:], os.Stdout)) }

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: plan-100f, churn-500f, observe-repair or daemon-mix (default all)")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 traces the run and reports per-layer metrics instead of end-to-end ones")
	runs := fs.Int("runs", 1, "runs per workload, seeds seed, seed+1, ...; prints each metric's median and quartiles")
	out := fs.String("out", "", "directory to write results.json (and traces with -trace 1) into")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *runs < 1 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: bad arguments (workload %q, runs %d, seconds %g, trace %d)\n", *name, *runs, *seconds, *trace)
		return 2
	}
	cfg := config{seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, setups: 3}
	rep := report{Machine: machineInfo(*out != "")}
	ok := true
	for _, w := range selected {
		var results []result
		for k := 0; k < *runs; k++ {
			cfg.seed = *seed + int64(k)
			r, err := runWorkload(w, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			res := r.result(cfg.trace)
			printRun(stdout, r, res, *runs == 1)
			rep.Runs = append(rep.Runs, runRecord{r.workload, r.seed, r.digest, res})
			if *out != "" && r.rec != nil {
				if err := r.rec.write(filepath.Join(*out, fmt.Sprintf("%s-seed%d.trace.json", r.workload, r.seed))); err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 1
				}
			}
			ok = ok && res.Correct && res.Failed == 0
			results = append(results, res)
		}
		if *runs > 1 {
			printSpread(stdout, w.name, results, cfg.trace)
		}
	}
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// result is the JSON line the benchmark contract reads.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]valueOut `json:"metrics"`
}

type valueOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// names lists the metrics a run reports: per-layer when traced, end-to-end
// otherwise.
func names(traced bool) []metric {
	if traced {
		return perLayer()
	}
	return endToEnd
}

// result builds the run's JSON result. A metric that was never measured
// (no samples) marks the run incorrect: the run did not do what it is
// meant to measure, and JSON could not carry the value anyway.
func (r *run) result(traced bool) result {
	var v map[string]float64
	if traced {
		v = r.perLayerValues()
	} else {
		v, _ = r.endToEndValues()
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]valueOut{}}
	for _, m := range names(traced) {
		x := v[m.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			r.errs = append(r.errs, fmt.Errorf("metric %s was not measured", m.name))
			x = 0
		}
		res.Metrics[m.name] = valueOut{x, m.unit}
	}
	res.Correct = r.correct()
	return res
}

// printRun prints a run for people — every end-to-end metric with its
// sample count, the tail, the digest, and the per-layer metrics of a traced
// run — and, when final, its JSON result line.
func printRun(w io.Writer, r *run, res result, final bool) {
	for _, err := range r.errs {
		fmt.Fprintf(os.Stderr, "%s seed %d: %v\n", r.workload, r.seed, err)
	}
	e2e, n := r.endToEndValues()
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%s %s %.6g %s (n=%d)\n", r.workload, m.name, e2e[m.name], m.unit, n[m.name])
	}
	if s := summarize(millis(r.normalized(all))); s.TailP > 0 {
		fmt.Fprintf(w, "%s p%g_ms %.6g ms (n=%d)\n", r.workload, s.TailP, s.Tail, s.N)
	}
	raw, ref := summarize(millis(r.samples)), summarize(millis(r.refs))
	fmt.Fprintf(w, "%s raw_p50_ms %.6g ms (n=%d)\n", r.workload, raw.P50, raw.N)
	fmt.Fprintf(w, "%s reference_ms %.6g ms (n=%d)\n", r.workload, ref.P50, ref.N)
	fmt.Fprintf(w, "%s digest %s (seed %d, %d attempted, %d failed, correct %v)\n",
		r.workload, r.digest, r.seed, r.attempted, r.failed, res.Correct)
	if r.rec != nil {
		for _, m := range perLayer() {
			fmt.Fprintf(w, "%s layer %s %.6g %s\n", r.workload, m.name, res.Metrics[m.name].Value, m.unit)
		}
	}
	if final {
		raw, _ := json.Marshal(res)
		fmt.Fprintf(w, "%s\n", raw)
	}
}

// printSpread prints each metric's median and quartiles across runs (the
// spread a regression bound must exceed) and the JSON line of the medians.
func printSpread(w io.Writer, workload string, results []result, traced bool) {
	med := result{Correct: true, Metrics: map[string]valueOut{}}
	for _, m := range names(traced) {
		var xs []float64
		for _, res := range results {
			xs = append(xs, res.Metrics[m.name].Value)
		}
		q1, q2, q3, _ := quartiles(xs)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		note := ""
		if spread > 0.10 {
			note = "  (spread over 10%: report, do not gate)"
		}
		fmt.Fprintf(w, "%s %s median %.6g q1 %.6g q3 %.6g spread %.1f%% (runs=%d)%s\n",
			workload, m.name, q2, q1, q3, 100*spread, len(results), note)
		med.Metrics[m.name] = valueOut{q2, m.unit}
	}
	for _, res := range results {
		med.Correct = med.Correct && res.Correct
		med.Attempted += res.Attempted
		med.Failed += res.Failed
	}
	raw, _ := json.Marshal(med)
	fmt.Fprintf(w, "%s\n", raw)
}

// report is results.json: the machine and every run.
type report struct {
	Machine machine     `json:"machine"`
	Runs    []runRecord `json:"runs"`
}

type machine struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPU        string `json:"cpu,omitempty"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
}

type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Digest   string `json:"digest"`
	result
}

func (rep *report) write(dir string) error {
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding results: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "results.json"), append(raw, '\n'), 0o644)
}

// machineInfo records what produced the numbers. The CPU model is read
// only when results are written, since it comes from outside the checkout.
func machineInfo(withCPU bool) machine {
	m := machine{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				m.Revision = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
		m.Revision += dirty
	}
	if withCPU {
		if f, err := os.Open("/proc/cpuinfo"); err == nil {
			defer f.Close()
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
					m.CPU = strings.TrimSpace(v)
					break
				}
			}
		}
	}
	return m
}
