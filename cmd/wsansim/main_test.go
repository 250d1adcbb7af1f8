package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"wsan"
	"wsan/internal/experiment"
)

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                        // missing command
		{"fig1", "fig2"},          // too many commands
		{"nonsense"},              // unknown command
		{"-testbed", "x", "topo"}, // unknown testbed
		{"-bogus", "fig1"},        // unknown flag
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// TestRunRejectsNonPositiveTrials: a data point needs at least one trial
// (zero divided Fig. 6's mean time by zero and printed NaN% ratios).
func TestRunRejectsNonPositiveTrials(t *testing.T) {
	for _, args := range [][]string{
		{"-trials", "0", "fig6"},
		{"-trials", "0", "fig3"},
		{"-trials", "-2", "ext-rho"},
		{"fig3", "-trials", "0"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "-trials") {
			t.Errorf("run(%v) = %v, want a -trials error", args, err)
		}
	}
}

// TestSoakRejectsBadConfig: the soak subcommand reports the harness's own
// validation error once, without re-wrapping it, and an out-of-range channel
// count fails instead of running clamped to the band.
func TestSoakRejectsBadConfig(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"soak", "-channels", "99", "-flows", "5", "-ops", "5"}, "soak: channels 99 must be in [1, 16]"},
		{[]string{"soak", "-flows", "5", "-ops", "-1"}, "soak: ops -1, batch every 50, batch size 8, and oracle every 1000 must be non-negative"},
		{[]string{"soak", "-flows", "5", "-ops", "5", "-batch-every", "-1"},
			"soak: ops 5, batch every -1, batch size 8, and oracle every 1000 must be non-negative"},
	} {
		if err := run(c.args); err == nil || err.Error() != c.want {
			t.Errorf("run(%v) = %v, want %q", c.args, err, c.want)
		}
	}
}

// TestUsageListsEveryFigure: every registered figure is named in the usage
// text and is what its name dispatches to; "all" and "ext" split the
// registry between them.
func TestUsageListsEveryFigure(t *testing.T) {
	words := strings.Split(strings.TrimSuffix(strings.SplitN(usage(), "<", 2)[1], ">"), " | ")
	all, ext := len(selectFigures("all")), len(selectFigures("ext"))
	if all+ext != len(experiment.Figures) || all == 0 || ext == 0 {
		t.Errorf("all runs %d figures and ext %d; the registry has %d", all, ext, len(experiment.Figures))
	}
	for _, f := range experiment.Figures {
		if !slices.Contains(words, f.Name) {
			t.Errorf("usage omits %s: %s", f.Name, usage())
		}
		if got := selectFigures(f.Name); len(got) != 1 || got[0].Name != f.Name {
			t.Errorf("%s dispatches to %v", f.Name, got)
		}
	}
	if got := selectFigures("fig12"); len(got) != 0 {
		t.Errorf("fig12 dispatches to %v", got)
	}
}

func TestRunFig7(t *testing.T) {
	if err := run([]string{"-trials", "1", "fig7"}); err != nil {
		t.Fatalf("fig7: %v", err)
	}
}

func TestRunTopo(t *testing.T) {
	if err := run([]string{"topo"}); err != nil {
		t.Fatalf("topo: %v", err)
	}
	if err := run([]string{"-testbed", "indriya", "topo"}); err != nil {
		t.Fatalf("topo indriya: %v", err)
	}
}

func TestRunTopoJSON(t *testing.T) {
	if err := run([]string{"-json", "topo"}); err != nil {
		t.Fatalf("topo -json: %v", err)
	}
}

func TestRunSmallFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure run skipped in -short mode")
	}
	if err := run([]string{"-trials", "2", "fig4"}); err != nil {
		t.Fatalf("fig4: %v", err)
	}
	if err := run([]string{"-trials", "2", "ext-rho"}); err != nil {
		t.Fatalf("ext-rho: %v", err)
	}
}

func TestPipelineSubcommands(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"gen-schedule", "-flows", "10", "-out", dir}); err != nil {
		t.Fatalf("gen-schedule: %v", err)
	}
	for _, name := range []string{"survey.json", "workload.json", "schedule.json"} {
		if _, err := os.Stat(dir + "/" + name); err != nil {
			t.Fatalf("artifact %s missing: %v", name, err)
		}
	}
	if err := run([]string{"simulate", "-dir", dir, "-reps", "5"}); err != nil {
		t.Fatalf("simulate: %v", err)
	}
	// A negative σ would silently run with fading or drift off.
	for _, flag := range []string{"-fading", "-drift"} {
		err := run([]string{"simulate", "-dir", dir, "-reps", "5", flag, "-1"})
		if want := flag[1:] + " -1 must be a finite, non-negative σ (dB)"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("simulate %s -1: %v, want %q", flag, err, want)
		}
	}
}

// TestGenScheduleCreatesOutDir: -out may name a directory that does not
// exist yet, parents included.
func TestGenScheduleCreatesOutDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "new", "bundle")
	if err := run([]string{"gen-schedule", "-flows", "4", "-out", dir}); err != nil {
		t.Fatalf("gen-schedule into a missing directory: %v", err)
	}
	for _, name := range []string{"survey.json", "workload.json", "schedule.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("artifact %s missing: %v", name, err)
		}
	}
}

func TestPipelineErrors(t *testing.T) {
	cases := [][]string{
		{"gen-schedule", "-testbed", "bogus"},
		{"gen-schedule", "-traffic", "bogus", "-out", t.TempDir()},
		{"gen-schedule", "-alg", "bogus", "-out", t.TempDir()},
		{"simulate", "-dir", t.TempDir()}, // no artifacts
		{"fig1", "extra-arg"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestRenderFormats(t *testing.T) {
	if err := run([]string{"-trials", "1", "-format", "csv", "fig7"}); err != nil {
		t.Fatalf("csv: %v", err)
	}
	if err := run([]string{"-trials", "1", "-format", "chart:1", "fig7"}); err != nil {
		t.Fatalf("chart: %v", err)
	}
	if err := run([]string{"-trials", "1", "-format", "chart:x", "fig7"}); err == nil {
		t.Error("bad chart column should fail")
	}
	if err := run([]string{"-trials", "1", "-format", "bogus", "fig7"}); err == nil {
		t.Error("bad format should fail")
	}
}

func TestParseAlgorithmAll(t *testing.T) {
	for _, s := range []string{"nr", "ra", "rc"} {
		if _, err := wsan.ParseAlgorithm(s); err != nil {
			t.Errorf("ParseAlgorithm(%q): %v", s, err)
		}
	}
	// The CLI quotes the parser's message verbatim.
	err := run([]string{"gen-schedule", "-alg", "xx", "-out", t.TempDir()})
	if err == nil || err.Error() != `unknown algorithm "xx" (want nr, ra, or rc)` {
		t.Errorf("unknown -alg: %v", err)
	}
}

func TestDescribeSubcommand(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"gen-schedule", "-flows", "8", "-out", dir}); err != nil {
		t.Fatalf("gen-schedule: %v", err)
	}
	if err := run([]string{"describe", "-dir", dir, "-span", "10", "-node", "0"}); err != nil {
		t.Fatalf("describe: %v", err)
	}
	if err := run([]string{"describe", "-dir", t.TempDir()}); err == nil {
		t.Error("describe without artifacts should fail")
	}
}

func TestAnalyzeTraceSubcommand(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"gen-schedule", "-flows", "8", "-out", dir}); err != nil {
		t.Fatalf("gen-schedule: %v", err)
	}
	trace := dir + "/trace.jsonl"
	if err := run([]string{"simulate", "-dir", dir, "-reps", "3", "-trace", trace}); err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if err := run([]string{"analyze-trace", "-file", trace}); err != nil {
		t.Fatalf("analyze-trace: %v", err)
	}
	if err := run([]string{"analyze-trace"}); err == nil {
		t.Error("missing -file should fail")
	}
	if err := run([]string{"analyze-trace", "-file", dir + "/missing.jsonl"}); err == nil {
		t.Error("missing file should fail")
	}
}

func TestManageSubcommand(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"gen-schedule", "-alg", "ra", "-flows", "30",
		"-minperiod", "0", "-maxperiod", "0", "-out", dir})
	if err != nil {
		t.Fatalf("gen-schedule: %v", err)
	}
	if err := run([]string{"manage", "-dir", dir, "-epoch", "5000", "-iterations", "2"}); err != nil {
		t.Fatalf("manage: %v", err)
	}
	// The written schedule must still decode and simulate.
	if err := run([]string{"simulate", "-dir", dir, "-reps", "3"}); err != nil {
		t.Fatalf("simulate after manage: %v", err)
	}
	if err := run([]string{"manage", "-dir", t.TempDir()}); err == nil {
		t.Error("manage without artifacts should fail")
	}
}

func TestMetricsOutFlag(t *testing.T) {
	path := t.TempDir() + "/metrics.json"
	if err := run([]string{"-metrics-out", path, "topo"}); err != nil {
		t.Fatalf("topo -metrics-out: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("metrics file not written: %v", err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	if len(snap.Counters) == 0 {
		t.Error("metrics snapshot has no counters")
	}
	// An unwritable path surfaces as a command error.
	if err := run([]string{"-metrics-out", t.TempDir() + "/no/such/dir/m.json", "topo"}); err == nil {
		t.Error("unwritable -metrics-out path should fail")
	}
}

func TestValidateSubcommand(t *testing.T) {
	// A centralized route crosses the wired AP→gateway→AP segment; validate
	// must accept that one break between access points.
	for _, traffic := range []string{"p2p", "centralized"} {
		dir := t.TempDir()
		if err := run([]string{"gen-schedule", "-traffic", traffic, "-flows", "10", "-out", dir}); err != nil {
			t.Fatalf("%s gen-schedule: %v", traffic, err)
		}
		if err := run([]string{"validate", "-dir", dir}); err != nil {
			t.Fatalf("%s validate: %v", traffic, err)
		}
	}
	if err := run([]string{"validate", "-dir", t.TempDir()}); err == nil {
		t.Error("validate without artifacts should fail")
	}
}
