package experiment

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// tableChecksum is the hex of the first 8 bytes of sha256(t.String()), the
// pin format of the root golden_test.go. Only tables without a wall-time
// column are pinned.
func tableChecksum(t *Table) string {
	h := sha256.Sum256([]byte(t.String()))
	return fmt.Sprintf("%x", h[:8])
}

// goldenOpt is the reduced scale every figure pin runs at.
var goldenOpt = Options{Trials: 10, Seed: 1}

// scaledRuns replaces the full-scale runner of the simulation-heavy figures
// with a reduced-scale call of their *Scaled entry point.
var scaledRuns = map[string]func(*Env, Options) ([]*Table, error){
	"fig8": func(env *Env, opt Options) ([]*Table, error) {
		p := DefaultReliabilityParams()
		p.NumFlowSets = 2
		p.Hyperperiods = 30
		return Fig8Scaled(env, opt, p)
	},
	"fig10": func(env *Env, opt Options) ([]*Table, error) {
		p := DefaultDetectionParams()
		p.Epochs = 2
		p.EpochSlots = 20_000
		p.WindowSlots = 1_200
		p.ProbeEverySlots = 100
		return Fig10Scaled(env, opt, p)
	},
	"fig11": func(env *Env, opt Options) ([]*Table, error) {
		return Fig11Scaled(env, opt, fig11Params())
	},
	"ext-repair": func(env *Env, opt Options) ([]*Table, error) {
		p := DefaultDetectionParams()
		p.Epochs = 1
		p.EpochSlots = 20_000
		p.WindowSlots = 1_000
		p.ProbeEverySlots = 200
		return ExtRepairScaled(env, opt, p)
	},
	"ext-reliability": func(env *Env, opt Options) ([]*Table, error) {
		return ExtReliabilityScaled(env, opt, extReliabilityParams())
	},
}

func fig11Params() DetectionParams {
	p := DefaultDetectionParams()
	p.Epochs = 2
	p.EpochSlots = 10_000
	p.WindowSlots = 600
	p.ProbeEverySlots = 200
	return p
}

func extReliabilityParams() ReliabilityTargetParams {
	p := DefaultReliabilityTargetParams()
	p.Targets = []float64{0, 0.99}
	p.Hyperperiods = 20
	return p
}

// figurePins holds, per figure, the tableChecksum of each table it returns
// at goldenOpt. fig6 reports wall time and is not pinned.
var figurePins = map[string][]string{
	"fig1":            {"96f6f46e33c4e7c9", "9633a33208a2d169", "b556f38a230fdadd"},
	"fig2":            {"723c1bf51c3af129", "eacb8c73ea70c12a", "d0c140ca13b183b4"},
	"fig3":            {"035c4311777f4675", "39c98faa699a9d15"},
	"fig4":            {"85fc81d4a8347f69", "b9a4233126fcaa0c"},
	"fig5":            {"69ae43276a1c6343", "bc987a9654d42062"},
	"fig7":            {"a2059710754c1745"},
	"fig8":            {"28744f3c0fe0b2d0"},
	"fig9":            {"5820503d36462cbd"},
	"fig10":           {"d9945501430cf048", "9b22922c2b670501"},
	"fig11":           {"edefd1e0a3edcde0"},
	"ext-latency":     {"8e2f7df5b892bb85"},
	"ext-rho":         {"b646f26a19534ff3"},
	"ext-priority":    {"cab87f5a93d2cc55"},
	"ext-fixedrho":    {"125ff4896a2f1930"},
	"ext-repair":      {"735cb943309cd0d9"},
	"ext-seeds":       {"0b9f86896c307706"},
	"ext-phases":      {"99ea5b98d0dae192"},
	"ext-detector":    {"b56e2172b589164a"},
	"ext-manage":      {"96b64bab0b9f241e"},
	"ext-diversity":   {"9a77126beb6d1cbe"},
	"ext-bursty":      {"cf41ced793980cdb"},
	"ext-balance":     {"8838818e7336615a"},
	"ext-reliability": {"e47f0501ef57b207"},
}

var (
	goldenEnvs = map[string]func() (*Env, error){
		"indriya": sync.OnceValues(func() (*Env, error) { return NewIndriyaEnv(1) }),
		"wustl":   sync.OnceValues(func() (*Env, error) { return NewWUSTLEnv(1) }),
	}
	goldenMu      sync.Mutex
	goldenResults = map[string]func() ([]*Table, error){}
)

// figureTables runs one figure at goldenOpt on its testbed, once per test
// binary, so the pin and any assertion on the same tables share one run.
func figureTables(t *testing.T, name string) []*Table {
	t.Helper()
	goldenMu.Lock()
	get, ok := goldenResults[name]
	if !ok {
		for _, f := range Figures {
			if f.Name != name {
				continue
			}
			run, testbed := f.Run, f.Testbed
			if scaled, ok := scaledRuns[name]; ok {
				run = scaled
			}
			get = sync.OnceValues(func() ([]*Table, error) {
				env, err := goldenEnvs[testbed]()
				if err != nil {
					return nil, err
				}
				return run(env, goldenOpt)
			})
			goldenResults[name] = get
		}
	}
	goldenMu.Unlock()
	if get == nil {
		t.Fatalf("no figure %q", name)
	}
	tables, err := get()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return tables
}

// TestFigureGolden pins every deterministic figure table at reduced scale:
// a refactor of the experiment runners must leave each rendering
// byte-identical. A drifting table is printed with its new checksum. -short
// skips the ext-* studies and keeps the paper's figures.
func TestFigureGolden(t *testing.T) {
	registered := map[string]bool{}
	for _, f := range Figures {
		registered[f.Name] = true
		if f.Name == "fig6" {
			continue
		}
		t.Run(f.Name, func(t *testing.T) {
			want, ok := figurePins[f.Name]
			if !ok {
				t.Fatalf("%s has no pin", f.Name)
			}
			if testing.Short() && strings.HasPrefix(f.Name, "ext-") {
				t.Skip("ext-* pins skipped in -short mode")
			}
			tables := figureTables(t, f.Name)
			if len(tables) != len(want) {
				t.Fatalf("%d tables, want %d", len(tables), len(want))
			}
			for i, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("table %d is empty", i)
				}
				if got := tableChecksum(tb); got != want[i] {
					t.Errorf("table %d changed: checksum %s, want %s\n%s", i, got, want[i], tb)
				}
			}
		})
	}
	for name := range figurePins {
		if !registered[name] {
			t.Errorf("pin for %s, which is not in Figures", name)
		}
	}
}

// checkTableShapes fails unless name returned at least one table and every
// table has a header, at least one row, and rows as wide as its header.
func checkTableShapes(t *testing.T, name string, tables []*Table) {
	t.Helper()
	if len(tables) == 0 {
		t.Fatalf("%s: no tables", name)
	}
	for i, tb := range tables {
		if len(tb.Header) == 0 || len(tb.Rows) == 0 {
			t.Errorf("%s table %d: %d header cells, %d rows", name, i, len(tb.Header), len(tb.Rows))
		}
		for j, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Errorf("%s table %d row %d: %d cells, header has %d", name, i, j, len(row), len(tb.Header))
			}
		}
	}
}

// TestSmokeAll runs the paper's Fig. 1–7 at reduced scale and checks the
// shape of every table. It is the only test that runs fig6, whose wall-time
// column keeps it out of TestFigureGolden.
func TestSmokeAll(t *testing.T) {
	for _, name := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"} {
		checkTableShapes(t, name, figureTables(t, name))
	}
}

// TestExtensionsSmoke runs every ext-* study in Figures at reduced scale and
// checks the shape of every table.
func TestExtensionsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("extension smoke skipped in -short mode")
	}
	n := 0
	for _, f := range Figures {
		if strings.HasPrefix(f.Name, "ext-") {
			checkTableShapes(t, f.Name, figureTables(t, f.Name))
			n++
		}
	}
	if n == 0 {
		t.Fatal("no ext-* study in Figures")
	}
}

// TestSmokeFig9And11 checks the shape of the Fig. 9 and Fig. 11 tables.
func TestSmokeFig9And11(t *testing.T) {
	if n := len(figureTables(t, "fig9")[0].Rows); n != 10 {
		t.Errorf("fig9: %d rows, want 5 sets × 2 algorithms", n)
	}
	f11 := figureTables(t, "fig11")[0]
	if len(f11.Rows) != 2 {
		t.Errorf("fig11: %d rows, want RA and RC", len(f11.Rows))
	}
	if len(f11.Header) != 1+fig11Params().Epochs {
		t.Errorf("fig11 header = %v", f11.Header)
	}
}

// TestExtRepairSmoke asserts the detect→repair loop does not worsen
// worst-case delivery.
func TestExtRepairSmoke(t *testing.T) {
	rows := figureTables(t, "ext-repair")[0].Rows
	if len(rows) != 2 {
		t.Fatalf("want before/after rows, got %d", len(rows))
	}
	var beforeMin, afterMin float64
	if _, err := fmt.Sscanf(rows[0][4], "%f", &beforeMin); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscanf(rows[1][4], "%f", &afterMin); err != nil {
		t.Fatal(err)
	}
	// The before/after runs are independent stochastic realizations; the
	// min over 50 flows carries a few percent of sampling noise, so only a
	// clear regression fails.
	if afterMin < beforeMin-0.05 {
		t.Errorf("repair clearly worsened min PDR: before=%v after=%v", beforeMin, afterMin)
	}
}

// TestExtReliabilitySmoke checks the reliability-target study applied
// budgets: the targeted rows carry budget slots and the baseline rows none.
func TestExtReliabilitySmoke(t *testing.T) {
	rows := figureTables(t, "ext-reliability")[0].Rows
	if want := len(extReliabilityParams().Targets) * 3; len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, row := range rows {
		budgeted := row[0] != "off"
		if budgeted && row[2] == "0" {
			t.Fatalf("targeted row has no budget slots: %v", row)
		}
		if !budgeted && row[2] != "0" {
			t.Fatalf("baseline row has budget slots: %v", row)
		}
	}
}
