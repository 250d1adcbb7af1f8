package experiment

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// tableChecksum is the hex of the first 8 bytes of sha256(t.String()), the
// pin format of the root golden_test.go. Only tables without a wall-time
// column are pinned.
func tableChecksum(t *Table) string {
	h := sha256.Sum256([]byte(t.String()))
	return fmt.Sprintf("%x", h[:8])
}

// TestExtensionsSmoke exercises each extension experiment at reduced scale.
// An entry with a checksum pins its first table's rendering; the others
// only log it.
func TestExtensionsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("extension smoke skipped in -short mode")
	}
	opt := Options{Trials: 5, Seed: 1}
	wustl, err := NewWUSTLEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []struct {
		name     string
		f        func(*Env, Options) ([]*Table, error)
		checksum string
	}{
		{"ext-latency", ExtLatency, ""},
		{"ext-rho", ExtRhoSweep, ""},
		{"ext-priority", ExtPriority, ""},
		{"ext-fixedrho", ExtFixedRho, ""},
		{"ext-seeds", ExtSeeds, ""},
		{"ext-phases", ExtPhases, ""},
		{"ext-detector", ExtDetector, ""},
		{"ext-manage", ExtManage, "96b64bab0b9f241e"},
		{"ext-diversity", ExtDiversity, ""},
		{"ext-bursty", ExtBursty, ""},
		{"ext-balance", ExtBalance, ""},
	} {
		tables, err := fn.f(wustl, opt)
		if err != nil {
			t.Fatalf("%s: %v", fn.name, err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			t.Fatalf("%s: empty result", fn.name)
		}
		if fn.checksum == "" {
			t.Log("\n" + tables[0].String())
		} else if got := tableChecksum(tables[0]); got != fn.checksum {
			t.Errorf("%s table changed: checksum %s, want %s\n%s", fn.name, got, fn.checksum, tables[0])
		}
	}
}

// TestExtRepairSmoke exercises the detect→repair loop at reduced scale, pins
// its table, and asserts it does not worsen worst-case delivery.
func TestExtRepairSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("repair smoke skipped in -short mode")
	}
	opt := Options{Trials: 3, Seed: 1}
	wustl, err := NewWUSTLEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultDetectionParams()
	p.Epochs = 1
	p.EpochSlots = 20_000
	p.WindowSlots = 1_000
	p.ProbeEverySlots = 200
	tables, err := ExtRepairScaled(wustl, opt, p)
	if err != nil {
		t.Fatal(err)
	}
	const want = "735cb943309cd0d9"
	if got := tableChecksum(tables[0]); got != want {
		t.Errorf("ext-repair table changed: checksum %s, want %s\n%s", got, want, tables[0])
	}
	rows := tables[0].Rows
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

// TestExtReliabilitySmoke exercises the reliability-target study at reduced
// scale and checks the strict target buys a higher simulated PDR floor than
// a clearly infeasible budget would explain — i.e. budgets were applied.
func TestExtReliabilitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("reliability-target smoke skipped in -short mode")
	}
	opt := Options{Trials: 1, Seed: 1}
	wustl, err := NewWUSTLEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultReliabilityTargetParams()
	p.Targets = []float64{0, 0.99}
	p.Hyperperiods = 20
	tables, err := ExtReliabilityScaled(wustl, opt, p)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tables[0].String())
	rows := tables[0].Rows
	if len(rows) != len(p.Targets)*3 {
		t.Fatalf("got %d rows, want %d", len(rows), len(p.Targets)*3)
	}
	// The baseline rows carry no budget; the targeted rows must.
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
