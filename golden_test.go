// Golden checksums: the behaviour pins of the repository. Each case runs a
// seeded workload — the Fig. 1 pipeline, the three schedulers and the delta
// scheduler at the Fig. 6 operating point, the simulator, reliability
// budgeting, the artifact store, the reschedule job and the sustained-churn
// soak — and pins the
// sha256 prefix of its deterministic output. The values hold on every
// machine and at any iteration count; timings are not gated here (the
// end-to-end benchmark is bench/run.sh, the microcases are BenchmarkGolden).
//
// A pin changes only when the pinned output legitimately changes. To accept
// such a change, run `go test -run TestGoldenChecksums .`, copy the reported
// checksum into its case, and explain the change in CHANGES.md.
package wsan_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"

	"wsan"
	"wsan/internal/experiment"
	"wsan/internal/jobs"
	"wsan/internal/scheduler"
	"wsan/internal/server/storage"
	"wsan/internal/soak"
	"wsan/wsanclient"
)

// goldenCase is one pinned workload. setup builds its inputs and returns
// op, which runs the workload once and returns the bytes the checksum
// covers; BenchmarkGolden times op alone.
type goldenCase struct {
	name     string
	checksum string // hex of the first 8 bytes of sha256(op output)
	setup    func(tb testing.TB) (op func() ([]byte, error))
}

var goldenCases = []goldenCase{
	{"fig1", "27f26dc5f2a4a448", goldenFig1},
	{"scheduler/nr", "92f915c702178f99", goldenSchedule(wsan.NR)},
	{"scheduler/ra", "7496c135339598bc", goldenSchedule(wsan.RA)},
	{"scheduler/rc", "650dce07800037d3", goldenSchedule(wsan.RC)},
	{"scheduler/incremental", "1947ff9779353a14", goldenIncremental},
	{"simulate/wustl-50f", "4889b96a41135055", goldenSimulate},
	{"store/warmscan-10k", "7ded72bc99eb888c", goldenWarmScan},
	{"store/lookup-p99-10k", "9e448e53cfa9f88e", goldenLookup},
	{"budget/apply-100f", "d50aab9231b67021", goldenBudgetApply},
	{"scheduler/budget", "b9502549a496e474", goldenBudgetSchedule},
	{"churn/soak_200f_1500ops", "8aeaf9bb9704b470", goldenChurn},
	{"analysis/delay-fig6", "a191938568eaeaa3", goldenDelayBounds},
	{"scheduler/rc-plan-counters", "33a592569b588904", goldenRCCounters},
	{"jobs/reschedule-chain", "6b8f48c0873f8091", goldenRescheduleChain},
}

// TestGoldenChecksums runs every case once and compares its checksum with
// the pin.
func TestGoldenChecksums(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			out, err := c.setup(t)()
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.Sum256(out)
			if got := fmt.Sprintf("%x", h[:8]); got != c.checksum {
				t.Errorf("%s output changed: checksum %s, want %s", c.name, got, c.checksum)
			}
		})
	}
}

// BenchmarkGolden times each pinned workload, e.g.
//
//	go test -run '^$' -bench Golden -benchtime 1x .
func BenchmarkGolden(b *testing.B) {
	for _, c := range goldenCases {
		b.Run(c.name, func(b *testing.B) {
			op := c.setup(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// goldenFig1 renders the Fig. 1 tables at benchmark scale.
func goldenFig1(tb testing.TB) func() ([]byte, error) {
	ind, _ := benchEnvs(tb)
	return func() ([]byte, error) {
		tables, err := experiment.Fig1(ind, benchOpt)
		if err != nil {
			return nil, err
		}
		var buf []byte
		for _, t := range tables {
			buf = append(buf, t.String()...)
		}
		return buf, nil
	}
}

// fig6Point is the Fig. 6 operating point: 100 peer-to-peer flows on
// Indriya with 5 channels, the workload the paper times.
var fig6Point = sync.OnceValues(func() (*fig6Workload, error) {
	topo, err := wsan.GenerateIndriya(1)
	if err != nil {
		return nil, err
	}
	net, err := wsan.NewNetwork(topo, 5)
	if err != nil {
		return nil, err
	}
	flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows:     100,
		MinPeriodExp: 0,
		MaxPeriodExp: 2,
		Traffic:      wsan.PeerToPeer,
		Seed:         3,
	})
	if err != nil {
		return nil, err
	}
	return &fig6Workload{net, flows}, nil
})

type fig6Workload struct {
	net   *wsan.Network
	flows []*wsan.Flow
}

// wustl50Point is the simulator operating point: the first schedulable
// 50-flow peer-to-peer WUSTL workload (4 channels) and its RC schedule.
var wustl50Point = sync.OnceValues(func() (*wustl50Workload, error) {
	topo, err := wsan.GenerateWUSTL(1)
	if err != nil {
		return nil, err
	}
	net, err := wsan.NewNetwork(topo, 4)
	if err != nil {
		return nil, err
	}
	for seed := int64(0); seed <= 50; seed++ {
		flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
			NumFlows:     50,
			MinPeriodExp: 0,
			MaxPeriodExp: 0,
			Traffic:      wsan.PeerToPeer,
			Seed:         seed,
		})
		if err != nil {
			return nil, err
		}
		res, err := net.Schedule(flows, wsan.RC, wsan.ScheduleConfig{})
		if err != nil {
			return nil, err
		}
		if res.Schedulable {
			return &wustl50Workload{net, flows, res}, nil
		}
	}
	return nil, fmt.Errorf("no schedulable 50-flow WUSTL workload in seeds 0..50")
})

type wustl50Workload struct {
	net   *wsan.Network
	flows []*wsan.Flow
	res   *wsan.ScheduleResult
}

// check fails tb on a setup error.
func check(tb testing.TB, err error) {
	tb.Helper()
	if err != nil {
		tb.Fatal(err)
	}
}

// goldenSchedule runs one scheduler over the Fig. 6 operating point.
func goldenSchedule(alg wsan.Algorithm) func(testing.TB) func() ([]byte, error) {
	return func(tb testing.TB) func() ([]byte, error) {
		w, err := fig6Point()
		check(tb, err)
		return func() ([]byte, error) {
			res, err := w.net.Schedule(w.flows, alg, wsan.ScheduleConfig{})
			if err != nil {
				return nil, err
			}
			return scheduleDigest(res), nil
		}
	}
}

// goldenIncremental churns flow 100 in and out of the pinned 99-flow RC
// schedule at the Fig. 6 operating point. The add/remove pair returns the
// grid to its base state, so every run measures the same churn op; the
// checksum covers the delta changes and the restored schedule.
func goldenIncremental(tb testing.TB) func() ([]byte, error) {
	w, err := fig6Point()
	check(tb, err)
	base, churn := w.flows[:99], w.flows[99]
	baseRes, err := w.net.Schedule(base, wsan.RC, wsan.ScheduleConfig{})
	check(tb, err)
	if !baseRes.Schedulable {
		tb.Fatal("99-flow incremental base not schedulable")
	}
	return func() ([]byte, error) {
		add, err := w.net.ApplyDelta(baseRes, base,
			[]wsan.DeltaOp{{Kind: wsan.DeltaAdd, Flow: churn}}, wsan.RC, wsan.ScheduleConfig{})
		if err != nil {
			return nil, err
		}
		if !add.Schedulable {
			return nil, fmt.Errorf("incremental add of flow %d infeasible", churn.ID)
		}
		rem, err := w.net.ApplyDelta(baseRes, add.Flows,
			[]wsan.DeltaOp{{Kind: wsan.DeltaRemove, FlowID: churn.ID}}, wsan.RC, wsan.ScheduleConfig{})
		if err != nil {
			return nil, err
		}
		buf := fmt.Appendf(nil, "fallback=%v;placed=%d;removed=%d;txs=%d;",
			add.Fallback, add.PlacementOps, rem.RemovalOps, baseRes.Schedule.Len())
		for _, c := range add.Changes {
			buf = fmt.Appendf(buf, "%v/%d@%d.%d;", c.Kind, c.Tx.FlowID, c.Tx.Slot, c.Tx.Offset)
		}
		return buf, nil
	}
}

// goldenRescheduleChain runs a schedule job on WUSTL (30 flows, seed 1) and
// chains reschedule jobs on its output through jobs.Exec: remove flow 2,
// add it back as the lowest-priority flow 30, then reroute flow 30 around
// its first relay. The checksum covers every part of every output, in
// part-name order, so it pins the bytes of workload.json and delta.json.
func goldenRescheduleChain(tb testing.TB) func() ([]byte, error) {
	nw, err := jobs.NewNetwork(wsanclient.CreateNetworkRequest{Preset: "wustl"})
	check(tb, err)
	return func() ([]byte, error) {
		ctx := context.Background()
		outs := map[string]jobs.Parts{}
		env := &jobs.Env{Network: nw, Lookup: func(ref string) (jobs.Bundle, error) {
			if b, ok := outs[ref]; ok {
				return b, nil
			}
			return nil, fmt.Errorf("artifact %q not found", ref)
		}}
		var buf []byte
		run := func(name string, p jobs.Params) error {
			parts, err := jobs.Exec(ctx, env, p)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			outs[name] = parts
			names := make([]string, 0, len(parts))
			for part := range parts {
				names = append(names, part)
			}
			sort.Strings(names)
			for _, part := range names {
				buf = fmt.Appendf(buf, "%s/%s:%s\n", name, part, parts[part])
			}
			return nil
		}
		if err := run("base", &jobs.ScheduleParams{Flows: 30, Seed: 1}); err != nil {
			return nil, err
		}
		flows, _, err := env.LoadBundle("base")
		if err != nil {
			return nil, err
		}
		f := flows[2]
		if err := run("removed", &jobs.RescheduleParams{Artifact: "base", Op: "remove", Flow: f.ID}); err != nil {
			return nil, err
		}
		if err := run("added", &jobs.RescheduleParams{Artifact: "removed", Op: "add", Flow: 30,
			Src: f.Src, Dst: f.Dst, Period: f.Period}); err != nil {
			return nil, err
		}
		if flows, _, err = env.LoadBundle("added"); err != nil {
			return nil, err
		}
		added := flows[len(flows)-1]
		if added.ID != 30 || len(added.Route) < 2 {
			return nil, fmt.Errorf("added flow %d has route %v; want flow 30 with a relay", added.ID, added.Route)
		}
		if err := run("rerouted", &jobs.RescheduleParams{Artifact: "added", Op: "reroute", Flow: 30,
			Avoid: []int{added.Route[0].To}}); err != nil {
			return nil, err
		}
		if flows, _, err = env.LoadBundle("rerouted"); err != nil {
			return nil, err
		}
		if moved := flows[len(flows)-1]; fmt.Sprint(moved.Route) == fmt.Sprint(added.Route) {
			return nil, fmt.Errorf("reroute left flow 30 on route %v", moved.Route)
		}
		return buf, nil
	}
}

// goldenSimulate simulates one hyperperiod of the 50-flow WUSTL schedule
// with a fixed simulation seed and digests per-flow release/delivery counts.
func goldenSimulate(tb testing.TB) func() ([]byte, error) {
	w, err := wustl50Point()
	check(tb, err)
	return func() ([]byte, error) {
		res, err := wsan.Simulate(w.net.NewSimConfig(w.flows, w.res, 1, 7))
		if err != nil {
			return nil, err
		}
		ids := make([]int, 0, len(res.Released))
		for id := range res.Released {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		var buf []byte
		for _, id := range ids {
			buf = fmt.Appendf(buf, "%d:%d/%d;", id, res.Delivered[id], res.Released[id])
		}
		return buf, nil
	}
}

// goldenBudgetApply plans per-hop retransmission budgets for all 100 Fig. 6
// flows at a 0.99 target, from clean clones so runs are identical.
func goldenBudgetApply(tb testing.TB) func() ([]byte, error) {
	w, err := fig6Point()
	check(tb, err)
	return func() ([]byte, error) {
		assigns, err := w.net.ApplyReliabilityTargets(experiment.CloneFlows(w.flows), 0.99, 0, nil)
		if err != nil {
			return nil, err
		}
		var buf []byte
		for _, a := range assigns {
			buf = fmt.Appendf(buf, "%d:%v/%.6f/%v;", a.FlowID, a.Plan.Attempts, a.Plan.Prob, a.Plan.Feasible)
		}
		return buf, nil
	}
}

// goldenBudgetSchedule schedules the 50-flow WUSTL workload with RC under
// 0.99-target per-hop retransmission budgets.
func goldenBudgetSchedule(tb testing.TB) func() ([]byte, error) {
	w, err := wustl50Point()
	check(tb, err)
	flows := experiment.CloneFlows(w.flows)
	_, err = w.net.ApplyReliabilityTargets(flows, 0.99, 0, nil)
	check(tb, err)
	return func() ([]byte, error) {
		res, err := w.net.Schedule(flows, wsan.RC, wsan.ScheduleConfig{})
		if err != nil {
			return nil, err
		}
		if !res.Schedulable {
			return nil, fmt.Errorf("budgeted 50-flow WUSTL workload not schedulable")
		}
		return scheduleDigest(res), nil
	}
}

// goldenDelayBounds runs the fixed-priority delay bound over prefixes of
// the Fig. 6 flow set (25, 50 and all 100 flows), first unbudgeted and then
// under 0.99-target per-hop retransmission budgets, and digests every
// flow's bound. The long prefixes overload the 5 channels, so the
// unschedulable (-1, deadline stand-in) path is covered too.
func goldenDelayBounds(tb testing.TB) func() ([]byte, error) {
	w, err := fig6Point()
	check(tb, err)
	budgeted := experiment.CloneFlows(w.flows)
	_, err = w.net.ApplyReliabilityTargets(budgeted, 0.99, 0, nil)
	check(tb, err)
	return func() ([]byte, error) {
		var buf []byte
		for _, set := range [][]*wsan.Flow{w.flows, budgeted} {
			for _, n := range []int{25, 50, 100} {
				bounds, err := wsan.DelayBounds(set[:n], 5, 2)
				if err != nil {
					return nil, err
				}
				buf = fmt.Appendf(buf, "n=%d|", n)
				for _, b := range bounds {
					buf = fmt.Appendf(buf, "%d:%d:%v;", b.FlowID, b.ResponseSlots, b.Schedulable)
				}
			}
		}
		return buf, nil
	}
}

// goldenRCCounters pins RC's scheduling counters at the plan point: twenty
// flow sets of 60–120 peer-to-peer flows on the Fig. 6 network (seeds
// 1, 14, …, 248, 60 + seed mod 61 flows each), every even seed's set
// budgeted to a 0.99 delivery target, each scheduled with and without the
// FixedRho ablation. The checksum covers every counter a run flushes —
// slots examined, laxity outcomes, ρ steps, fallbacks, misses, memo and
// pair-index traffic — so a change to the RC descent must keep its
// accounting exact, not only its placements.
func goldenRCCounters(tb testing.TB) func() ([]byte, error) {
	w, err := fig6Point()
	check(tb, err)
	gr, err := w.net.Testbed().ReuseGraph(w.net.Channels())
	check(tb, err)
	hop := gr.AllPairsHop()
	var sets [][]*wsan.Flow
	for k := int64(0); k < 20; k++ {
		seed := 1 + 13*k
		fs, err := w.net.GenerateWorkload(wsan.WorkloadConfig{
			NumFlows: 60 + int(seed%61), MinPeriodExp: 0, MaxPeriodExp: 2,
			Traffic: wsan.PeerToPeer, Seed: seed,
		})
		check(tb, err)
		if seed%2 == 0 {
			_, err = w.net.ApplyReliabilityTargets(fs, 0.99, 0, nil)
			check(tb, err)
		}
		sets = append(sets, fs)
	}
	return func() ([]byte, error) {
		var buf []byte
		for i, fs := range sets {
			for _, fixed := range []bool{false, true} {
				reg := wsan.NewMetricsRegistry()
				res, err := scheduler.Run(fs, scheduler.Config{
					Algorithm: scheduler.RC, NumChannels: len(w.net.Channels()), RhoT: 2,
					HopGR: hop, Retransmit: true, FixedRho: fixed, Metrics: reg,
				})
				if err != nil {
					return nil, err
				}
				counters := reg.Snapshot().Counters
				names := make([]string, 0, len(counters))
				for name := range counters {
					names = append(names, name)
				}
				sort.Strings(names)
				buf = fmt.Appendf(buf, "set=%d fixed=%v schedulable=%v|", i, fixed, res.Schedulable)
				for _, name := range names {
					buf = fmt.Appendf(buf, "%s=%d;", name, counters[name])
				}
			}
		}
		return buf, nil
	}
}

// goldenChurn runs a fixed-size soak: a 200-flow Indriya grid under a
// seeded add/remove/reroute/re-budget delta stream with replay-oracle
// checks. The checksum covers the final schedule digest and the operation
// counters.
func goldenChurn(testing.TB) func() ([]byte, error) {
	return func() ([]byte, error) {
		cfg := soak.DefaultConfig()
		cfg.Flows, cfg.Ops, cfg.OracleEvery = 200, 1_500, 500
		res, err := soak.Run(context.Background(), cfg)
		if err != nil {
			return nil, err
		}
		if res.Applied == 0 || res.OracleChecks == 0 {
			return nil, fmt.Errorf("soak did no verified work: %+v", res)
		}
		return fmt.Appendf(nil,
			"%s|applied=%d|infeasible=%d|skipped=%d|batches=%d|placed=%d|evict=%d|cascade=%d|full=%d",
			res.Digest, res.Applied, res.Infeasible, res.Skipped, res.Batches,
			res.PlacedTx, res.FallbackEvict, res.FallbackCascade, res.FallbackFull), nil
	}
}

// storeArtifacts is the artifact-store population. The checksums digest
// the recovered set, so it is fixed.
const storeArtifacts = 10_000

// The populated store is shared by both store cases: publishing 10k
// artifacts is disk-bound and dominates the test's run time. It is built
// on first use and removed by TestMain.
var (
	storeOnce sync.Once
	storeDir  string
	storeErr  error
)

// goldenStoreDir returns the directory of a disk store holding
// storeArtifacts deterministic artifacts (one schedule.json of 256..768 B
// each, content addressed by index), published without fsync.
func goldenStoreDir(tb testing.TB) string {
	storeOnce.Do(func() { storeDir, storeErr = populateStore() })
	check(tb, storeErr)
	return storeDir
}

func populateStore() (string, error) {
	dir, err := os.MkdirTemp("", "wsan-golden-store-*")
	if err != nil {
		return "", err
	}
	d, err := storage.Open(storage.Config{Dir: dir, NoSync: true})
	if err == nil {
		for i := 0; i < storeArtifacts && err == nil; i++ {
			pad := make([]byte, 256+(i%9)*64)
			for j := range pad {
				pad[j] = 'a' + byte((i+j)%26)
			}
			parts := map[string][]byte{"schedule.json": fmt.Appendf(nil, `{"i":%d,"pad":"%s"}`, i, pad)}
			_, err = d.Put(storeID(i), "schedule", parts)
		}
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	return dir, nil
}

func TestMain(m *testing.M) {
	code := m.Run()
	if storeDir != "" {
		os.RemoveAll(storeDir)
	}
	os.Exit(code)
}

// storeID is the content address of the i-th store artifact.
func storeID(i int) string {
	h := sha256.Sum256(fmt.Appendf(nil, "store-bench-%d", i))
	return fmt.Sprintf("%x", h)
}

// goldenWarmScan cold-starts the populated store (manifest load plus full
// digest verification of every part) and digests the recovered set: every
// artifact's ID, kind, part names and size, in ID order. Created times are
// machine time and stay out of the digest.
func goldenWarmScan(tb testing.TB) func() ([]byte, error) {
	dir := goldenStoreDir(tb)
	return func() ([]byte, error) {
		d, err := storage.Open(storage.Config{Dir: dir, NoSync: true})
		if err != nil {
			return nil, err
		}
		defer d.Close()
		if d.Len() != storeArtifacts || d.Quarantined() != 0 {
			return nil, fmt.Errorf("warm-scan recovered %d artifacts (%d quarantined), want %d clean",
				d.Len(), d.Quarantined(), storeArtifacts)
		}
		infos, _ := d.List("", 0)
		buf := fmt.Appendf(nil, "n=%d;bytes=%d;", d.Len(), d.Bytes())
		for _, in := range infos {
			buf = fmt.Appendf(buf, "%s/%s/%v/%d;", in.ID, in.Kind, in.Parts, in.Bytes)
		}
		return buf, nil
	}
}

// goldenLookup fetches the first 100 artifacts through Get (part read plus
// digest re-verification per lookup) from the opened store. A one-byte
// residency budget keeps every lookup on the disk path.
func goldenLookup(tb testing.TB) func() ([]byte, error) {
	d, err := storage.Open(storage.Config{Dir: goldenStoreDir(tb), MemBytes: 1, NoSync: true})
	check(tb, err)
	tb.Cleanup(func() { d.Close() })
	return func() ([]byte, error) {
		var buf []byte
		for i := 0; i < 100; i++ {
			a, ok := d.Get(storeID(i))
			if !ok {
				return nil, fmt.Errorf("store artifact %d missing", i)
			}
			buf = append(buf, a.Part("schedule.json")...)
		}
		return buf, nil
	}
}

// scheduleDigest serializes a schedule's transmissions.
func scheduleDigest(res *wsan.ScheduleResult) []byte {
	buf := fmt.Appendf(nil, "schedulable=%v;", res.Schedulable)
	for _, tx := range res.Schedule.Txs() {
		buf = fmt.Appendf(buf, "%d/%d/%d/%d/%d>%d@%d.%d;",
			tx.FlowID, tx.Instance, tx.Hop, tx.Attempt,
			tx.Link.From, tx.Link.To, tx.Slot, tx.Offset)
	}
	return buf
}
