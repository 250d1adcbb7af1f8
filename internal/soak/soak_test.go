package soak

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"wsan/internal/flow"
	"wsan/internal/obs"
	"wsan/internal/schedule"
)

// smokeConfig is a scaled-down operating point that still exercises every
// op kind, both batch and unit paths, and several oracle checkpoints, while
// staying fast enough for -race.
func smokeConfig(seed int64, ops int) Config {
	return Config{
		Flows:        60,
		Channels:     6,
		Ops:          ops,
		Seed:         seed,
		TopoSeed:     1,
		MinPeriodExp: 2,
		MaxPeriodExp: 4,
		BatchEvery:   25,
		BatchSize:    5,
		OracleEvery:  100,
	}
}

// TestSoakChurnSmoke is the churn soak smoke (run under -race in CI): a
// seeded stream of adds, removes, fault-driven reroutes and re-budgets —
// including atomic node-fault batches — against a live grid, with the
// replay oracle asserting zero checksum drift at every checkpoint and at
// the end. Two runs with the same seed must be byte-identical.
func TestSoakChurnSmoke(t *testing.T) {
	ops := 400
	if testing.Short() {
		ops = 150
	}
	reg := obs.NewRegistry()
	cfg := smokeConfig(7, ops)
	cfg.Metrics = reg
	var progressed int
	cfg.ProgressEvery = 50
	cfg.OnProgress = func(p Progress) {
		progressed++
		if p.Ops == 0 || p.Elapsed <= 0 {
			t.Errorf("empty progress snapshot: %+v", p)
		}
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != ops {
		t.Errorf("ops = %d, want %d", res.Ops, ops)
	}
	if res.Applied == 0 || res.OracleChecks == 0 {
		t.Fatalf("soak did nothing: %+v", res)
	}
	if res.Adds == 0 || res.Removes == 0 || res.Reroutes == 0 || res.Rebudgets == 0 {
		t.Errorf("op mix incomplete: adds %d removes %d reroutes %d rebudgets %d",
			res.Adds, res.Removes, res.Reroutes, res.Rebudgets)
	}
	if res.Batches == 0 {
		t.Error("no node-fault batch was applied")
	}
	if res.WarmupAdmitted == 0 || res.ActiveFlows == 0 || res.PlacedTx == 0 {
		t.Errorf("steady state missing: %+v", res)
	}
	if res.P99 < res.P50 || res.Max < res.P99 {
		t.Errorf("latency percentiles disordered: p50 %v p99 %v max %v", res.P50, res.P99, res.Max)
	}
	if progressed == 0 {
		t.Error("no progress snapshot was delivered")
	}

	// Determinism: the same seed reproduces the same schedule and counters.
	again, err := Run(context.Background(), smokeConfig(7, ops))
	if err != nil {
		t.Fatal(err)
	}
	if again.Digest != res.Digest {
		t.Errorf("digest not reproducible: %s vs %s", again.Digest, res.Digest)
	}
	if again.Applied != res.Applied || again.PlacedTx != res.PlacedTx ||
		again.Infeasible != res.Infeasible || again.Batches != res.Batches {
		t.Errorf("counters not reproducible:\n first %+v\nsecond %+v", res, again)
	}
}

// TestSoakConcurrentRuns drives two independent soaks in parallel — the
// delta scheduler's package-level scratch pools are shared across them, so
// this is the race-detector coverage for the pooled hot path. Each run must
// still match its own sequential digest.
func TestSoakConcurrentRuns(t *testing.T) {
	ops := 200
	if testing.Short() {
		ops = 80
	}
	seeds := []int64{3, 11}
	got := make([]string, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			res, err := Run(context.Background(), smokeConfig(seed, ops))
			if err != nil {
				t.Errorf("seed %d: %v", seed, err)
				return
			}
			got[i] = res.Digest
		}(i, seed)
	}
	wg.Wait()
	for i, seed := range seeds {
		res, err := Run(context.Background(), smokeConfig(seed, ops))
		if err != nil {
			t.Fatalf("sequential seed %d: %v", seed, err)
		}
		if got[i] != res.Digest {
			t.Errorf("seed %d: concurrent digest %s != sequential %s", seed, got[i], res.Digest)
		}
	}
}

// TestSoakCancellation: a cancelled context stops the run between
// operations with ctx.Err().
func TestSoakCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, smokeConfig(1, 50)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSoakHeapStable is the arena-recycling regression test: once the
// steady state is warm (25% of the run — every pool, arena, and pair-count
// cache has seen its working set), the live heap must not keep growing
// with churn. Before chunked recyclable arenas, every delta leaked arena
// segments and the heap grew linearly with the op count.
func TestSoakHeapStable(t *testing.T) {
	ops := 1_200
	if testing.Short() {
		ops = 400
	}
	cfg := smokeConfig(5, ops)
	cfg.ProgressEvery = ops / 4
	var quarter uint64
	cfg.OnProgress = func(p Progress) {
		if quarter != 0 {
			return
		}
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		quarter = mem.HeapAlloc
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if quarter == 0 {
		t.Fatal("no 25% heap sample was taken")
	}
	// Allow 20% relative growth plus a small absolute floor for runtime
	// noise; a per-op leak at this op count would blow far past it.
	limit := quarter + quarter/5 + 2<<20
	if res.HeapEndBytes > limit {
		t.Fatalf("heap grew under churn: %d B at 25%% of the run, %d B at the end (limit %d)",
			quarter, res.HeapEndBytes, limit)
	}
	t.Logf("heap: start %d B, 25%% %d B, end %d B over %d applied deltas (%.0f deltas/sec, p99 %v)",
		res.HeapStartBytes, quarter, res.HeapEndBytes, res.Applied, res.DeltasPerSec, res.P99)
}

// TestSoakConfigValidation rejects unrunnable configs.
func TestSoakConfigValidation(t *testing.T) {
	for _, cfg := range []Config{{}, {Flows: 10}, {Flows: 10, Channels: 4, Ops: -1}} {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
}

// TestSoakDigestCanonical: the digest must be order-independent — it is
// the drift detector, so schedules holding the same cells via different
// histories must agree.
func TestSoakDigestCanonical(t *testing.T) {
	res, err := Run(context.Background(), smokeConfig(2, 60))
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest == "" {
		t.Fatal("empty digest")
	}
	if res.Elapsed <= 0 || res.DeltasPerSec <= 0 {
		t.Errorf("throughput not measured: %+v", res)
	}
}

// TestPercentileDoesNotMutateSamples pins percentile's copy-before-sort
// contract: the latency buffer is shared by the progress callback (p99 every
// interval) and the final report (p50/p95/p99 over the same slice), so an
// in-place sort would silently reorder the live buffer between readers and
// skew every later percentile. The samples stay permuted, and the answers
// match the values computed from a pre-sorted copy.
func TestPercentileDoesNotMutateSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := make([]time.Duration, 101)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Microsecond
	}
	rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	orig := append([]time.Duration(nil), samples...)

	// 1..101 µs: percentile q lands exactly on ceil(101·q/100) µs.
	for _, c := range []struct {
		q    int
		want time.Duration
	}{
		{50, 51 * time.Microsecond},
		{95, 96 * time.Microsecond},
		{99, 100 * time.Microsecond},
		{100, 101 * time.Microsecond},
	} {
		if got := percentile(samples, c.q); got != c.want {
			t.Errorf("percentile(%d) = %v, want %v", c.q, got, c.want)
		}
		if !reflect.DeepEqual(samples, orig) {
			t.Fatalf("percentile(%d) mutated its input", c.q)
		}
	}
	// Interleaved progress/report reads over the permuted buffer agree.
	if p1, p2 := percentile(samples, 99), percentile(samples, 99); p1 != p2 {
		t.Fatalf("repeated percentile(99) disagree: %v vs %v", p1, p2)
	}
}

// TestAuditCatchesLeaks checks the checkpoint audit on a hand-built grid:
// it passes a consistent schedule and rejects each kind of leak it exists
// to catch — a cell left on an old route, a missing or extra budgeted
// attempt, and a transmission of a flow no longer active.
func TestAuditCatchesLeaks(t *testing.T) {
	f := &flow.Flow{ID: 3, Src: 0, Dst: 2, Period: 4, Deadline: 4,
		Route: []flow.Link{{From: 0, To: 1}, {From: 1, To: 2}}, TxBudget: []int{2, 1}}
	build := func(extra ...schedule.Tx) *schedule.Schedule {
		t.Helper()
		s, err := schedule.New(8, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		txs := []schedule.Tx{}
		for inst := 0; inst < 2; inst++ {
			base := 4 * inst
			txs = append(txs,
				schedule.Tx{FlowID: 3, Instance: inst, Hop: 0, Attempt: 0, Link: f.Route[0], Slot: base},
				schedule.Tx{FlowID: 3, Instance: inst, Hop: 0, Attempt: 1, Link: f.Route[0], Slot: base + 1},
				schedule.Tx{FlowID: 3, Instance: inst, Hop: 1, Attempt: 0, Link: f.Route[1], Slot: base + 2})
		}
		for _, tx := range append(txs, extra...) {
			if err := s.Place(tx); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	active := []*flow.Flow{f}
	if err := audit(build(), active); err != nil {
		t.Fatalf("consistent grid rejected: %v", err)
	}
	leaks := map[string]schedule.Tx{
		"old route":     {FlowID: 3, Instance: 0, Hop: 0, Attempt: 2, Link: flow.Link{From: 0, To: 3}, Slot: 3},
		"extra attempt": {FlowID: 3, Instance: 0, Hop: 1, Attempt: 1, Link: f.Route[1], Slot: 3},
		"inactive flow": {FlowID: 9, Instance: 0, Hop: 0, Link: flow.Link{From: 3, To: 0}, Slot: 3},
	}
	for name, tx := range leaks {
		if err := audit(build(tx), active); err == nil {
			t.Errorf("%s: leak not caught", name)
		}
	}
	missing := build()
	if err := missing.Remove(missing.Txs()[0]); err != nil {
		t.Fatal(err)
	}
	if err := audit(missing, active); err == nil {
		t.Error("missing attempt not caught")
	}
}
