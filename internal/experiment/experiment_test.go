package experiment

import (
	"errors"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"wsan/internal/flow"
	"wsan/internal/routing"
	"wsan/internal/scheduler"
)

func TestTableString(t *testing.T) {
	tb := &Table{
		Title:  "demo",
		Header: []string{"col", "value"},
		Rows: [][]string{
			{"a", "1"},
			{"longer-cell", "2"},
		},
		Note: "a note",
	}
	s := tb.String()
	for _, want := range []string{"== demo ==", "col", "longer-cell", "note: a note", "---"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	// Header, separator, two rows, note, title.
	if len(lines) != 6 {
		t.Errorf("got %d lines, want 6:\n%s", len(lines), s)
	}
	// Aligned: both data rows have the value column at the same offset.
	rowA := lines[3]
	rowB := lines[4]
	if strings.Index(rowA, "1") != strings.Index(rowB, "2") {
		t.Errorf("columns misaligned:\n%s\n%s", rowA, rowB)
	}
}

// TestDefaultOptions checks Options' one default: zero Workers means one
// worker per CPU.
func TestDefaultOptions(t *testing.T) {
	if got, want := (Options{}).workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Options{}.workers() = %d, want GOMAXPROCS %d", got, want)
	}
	if got := (Options{Workers: 3}).workers(); got != 3 {
		t.Errorf("Options{Workers: 3}.workers() = %d", got)
	}
}

func TestEnvForChannelsCachesAndValidates(t *testing.T) {
	env, err := NewWUSTLEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := env.ForChannels(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.ForChannels(4)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("ForChannels should cache")
	}
	if _, err := env.ForChannels(0); err == nil {
		t.Error("0 channels should fail")
	}
	if len(a.APs) != 2 || a.Hop == nil || a.Gc == nil || a.Gr == nil {
		t.Errorf("incomplete ChanEnv: %+v", a)
	}
}

func TestRunTrialSharesWorkload(t *testing.T) {
	env, err := NewWUSTLEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	spec := TrialSpec{
		Traffic:   routing.PeerToPeer,
		Channels:  4,
		Flows:     10,
		PeriodExp: [2]int{0, 1},
		Seed:      3,
	}
	results, fs, err := env.RunTrial(spec, allAlgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || len(fs) != 10 {
		t.Fatalf("results=%d flows=%d", len(results), len(fs))
	}
	for alg, res := range results {
		if res == nil || res.Schedule == nil {
			t.Errorf("%v: nil result", alg)
		}
	}
	// The returned flow set must be untouched by the scheduling runs (the
	// scheduler gets clones).
	for i, f := range fs {
		if f.ID != i {
			t.Errorf("flow order mutated: pos %d has ID %d", i, f.ID)
		}
	}
}

func TestCloneFlowsIsDeep(t *testing.T) {
	env, err := NewWUSTLEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	fs, _, err := env.GenerateFlows(TrialSpec{
		Traffic: routing.PeerToPeer, Channels: 4, Flows: 3,
		PeriodExp: [2]int{0, 0}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	clone := CloneFlows(fs)
	clone[0].ID = 99
	clone[0].Route[0].From = 999
	if fs[0].ID == 99 || fs[0].Route[0].From == 999 {
		t.Error("CloneFlows must deep-copy")
	}
}

// TestGenerateFlowsVariants checks that the TrialSpec workload switches
// reach the generator: RateMonotonic orders priorities by period instead of
// deadline, and StaggerPhases draws release offsets. (ext-priority's DM and
// RM rows agree at pin scale, so its table cannot tell them apart.)
func TestGenerateFlowsVariants(t *testing.T) {
	env, err := NewWUSTLEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(spec TrialSpec) []*flow.Flow {
		fs, _, err := env.GenerateFlows(spec)
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	byPeriod := func(fs []*flow.Flow) bool {
		return slices.IsSortedFunc(fs, func(a, b *flow.Flow) int { return a.Period - b.Period })
	}
	phased := func(fs []*flow.Flow) bool {
		return slices.ContainsFunc(fs, func(f *flow.Flow) bool { return f.Phase > 0 })
	}
	// Deadlines lie in [P/2, P], so the deadline-monotonic default differs
	// from period order only on a deadline tie across periods; take the
	// first seed that has one.
	spec := TrialSpec{Traffic: routing.PeerToPeer, Channels: 4, Flows: 60, PeriodExp: [2]int{0, 2}}
	for spec.Seed = 1; byPeriod(gen(spec)); spec.Seed++ {
		if spec.Seed == 100 {
			t.Fatal("no seed in 1..100 orders deadline-monotonic priorities off period order")
		}
	}
	if phased(gen(spec)) {
		t.Error("default workload has release phases")
	}
	spec.RateMonotonic = true
	if !byPeriod(gen(spec)) {
		t.Error("RateMonotonic workload is not in period order")
	}
	spec.RateMonotonic, spec.StaggerPhases = false, true
	if !phased(gen(spec)) {
		t.Error("StaggerPhases workload has no phases")
	}
}

func TestClampHist(t *testing.T) {
	h := map[int]int{0: 1, 1: 2, 3: 3, 7: 4}
	got := clampHist(h, []int{1, 2, 3, 4})
	if got[1] != 3 || got[3] != 3 || got[4] != 4 || got[2] != 0 {
		t.Errorf("clampHist = %v", got)
	}
	if out := clampHist(h, nil); len(out) != len(h) {
		t.Error("empty buckets should pass through")
	}
}

func TestWifiInterferersPlacement(t *testing.T) {
	env, err := NewWUSTLEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultDetectionParams()
	intf := wifiInterferers(env.TB, p)
	if len(intf) != 3 {
		t.Fatalf("got %d interferers, want one per floor", len(intf))
	}
	for i, in := range intf {
		if in.Floor != i {
			t.Errorf("interferer %d on floor %d", i, in.Floor)
		}
		if len(in.Channels) != p.NumChannels {
			t.Errorf("interferer covers %d channels, want %d", len(in.Channels), p.NumChannels)
		}
		if in.DutyCycle != p.InterfererDuty || in.PowerDBm != p.InterfererPowerDBm {
			t.Errorf("interferer %d parameters wrong: %+v", i, in)
		}
	}
}

func TestCountSchedulableConsistency(t *testing.T) {
	env, err := NewWUSTLEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Trials: 4, Seed: 1}
	spec := TrialSpec{Traffic: routing.PeerToPeer, Channels: 4, Flows: 10, PeriodExp: [2]int{1, 2}}
	ok, _, err := env.countSchedulable(spec, allAlgs, RhoT, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A tiny 10-flow workload must be schedulable under every algorithm.
	for _, alg := range allAlgs {
		if ok[alg] != opt.Trials {
			t.Errorf("%v schedulable %d/%d", alg, ok[alg], opt.Trials)
		}
	}
	_ = scheduler.NR
}

// TestParallelTrialsDeterministic verifies that the worker count does not
// change experiment results (every trial owns its seed), histograms summed
// across workers included.
func TestParallelTrialsDeterministic(t *testing.T) {
	env, err := NewWUSTLEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (map[scheduler.Algorithm]int, map[scheduler.Algorithm]map[int]int) {
		opt := Options{Trials: 12, Seed: 1, Workers: workers}
		spec := TrialSpec{Traffic: routing.PeerToPeer, Channels: 4, Flows: 60, PeriodExp: [2]int{0, 1}}
		ok, hists, err := env.countSchedulable(spec, allAlgs, RhoT, opt, reuseHops.hist)
		if err != nil {
			t.Fatal(err)
		}
		return ok, hists
	}
	serial, serialHists := run(1)
	parallel, parallelHists := run(4)
	for _, alg := range allAlgs {
		if serial[alg] != parallel[alg] {
			t.Errorf("%v: serial=%d parallel=%d", alg, serial[alg], parallel[alg])
		}
		if !maps.Equal(serialHists[alg], parallelHists[alg]) {
			t.Errorf("%v reuse hops: serial=%v parallel=%v", alg, serialHists[alg], parallelHists[alg])
		}
	}
	if len(serialHists[scheduler.RA]) == 0 {
		t.Error("RA reused no channel; the histogram check is vacuous")
	}
}

func TestForEachTrialPropagatesError(t *testing.T) {
	opt := Options{Trials: 8, Workers: 3}
	calls := 0
	var mu sync.Mutex
	err := forEachTrial(opt, func(trial int) error {
		mu.Lock()
		calls++
		mu.Unlock()
		if trial == 3 {
			return errBoom
		}
		return nil
	})
	if err != errBoom {
		t.Errorf("err = %v, want errBoom", err)
	}
	if calls == 0 {
		t.Error("no trials ran")
	}
}

var errBoom = errors.New("boom")

// TestFig8WorkerCountInvariant pins the determinism contract of the
// parallelized reliability pipeline: the batched seed search and the
// concurrent set×algorithm simulations must render byte-identical tables at
// any worker count, because candidates are consumed in ascending seed order
// and rows land in index-addressed slots.
func TestFig8WorkerCountInvariant(t *testing.T) {
	env, err := NewWUSTLEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultReliabilityParams()
	p.NumFlowSets = 2
	p.NumFlows = 20
	p.Hyperperiods = 4
	run := func(workers int) string {
		tables, err := Fig8Scaled(env, Options{Trials: 1, Seed: 1, Workers: workers}, p)
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, tb := range tables {
			out += tb.String()
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); got != serial {
			t.Errorf("workers=%d: output differs from serial run:\n--- serial ---\n%s\n--- parallel ---\n%s",
				workers, serial, got)
		}
	}
}
