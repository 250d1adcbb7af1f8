// Package soak is the sustained-churn harness: it drives a randomized but
// fully seeded stream of add / remove / reroute / re-budget deltas — plus
// periodic node-fault batches that reroute every flow crossing a failed
// relay in one atomic operation — against a large live schedule, and checks
// the incremental scheduler's work against an independent replay oracle.
//
// The harness proves and does not time: after thousands of journaled
// mutations, rollbacks, evictions, and full-reschedule repairs — with
// recycled grids and pooled scratch grids underneath — is the live
// schedule still byte-identical to what a fresh grid fed the same applied
// operations produces, and does it still satisfy every conflict and
// reuse-distance constraint? The benchmark's churn-500f workload times the
// same op mix.
//
// Every operation is one scheduler.ApplyDeltaBatch call, and every committed
// call's ops are logged as issued; at OracleEvery-operation checkpoints the
// oracle grid replays the pending log with one ApplyDeltaBatch call per
// entry and the two schedules' canonical digests must match exactly. No op
// edits a flow record in place — a reroute or re-budget commits a copy,
// returned in the post-call workload — and the harness never writes a flow
// it holds, so the log shares the live flows, routes and budgets without
// copying them. Any divergence — a stale index, a leaked cell entry, a
// journal that rolled back incompletely — fails the run. Because both grids run the same
// scheduler, each checkpoint also audits the live grid against the
// harness's own workload record with code that shares nothing with the
// scheduler (see audit). Counters are emitted under the "sched.churn."
// metric prefix.
package soak

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"

	"wsan/internal/flow"
	"wsan/internal/graph"
	"wsan/internal/obs"
	"wsan/internal/routing"
	"wsan/internal/schedule"
	"wsan/internal/scheduler"
	"wsan/internal/topology"
)

// RhoT is the minimum channel-reuse hop distance the harness schedules
// with, matching the evaluation's operating point.
const RhoT = 2

// minPeriodExp and maxPeriodExp bound the pool's harmonic period range
// P = [2^minPeriodExp, 2^maxPeriodExp] seconds.
const (
	minPeriodExp = 2
	maxPeriodExp = 4
)

// Config parameterizes one soak run. The zero value is not runnable; use
// DefaultConfig as the starting point.
type Config struct {
	// Flows is the steady-state active-flow target. The candidate pool is
	// twice this size, so adds always have somewhere to draw from.
	Flows int
	// Channels is the channel count (schedule offsets), 1..topology.NumChannels.
	Channels int
	// Ops is the number of churn operations to drive after warmup. A
	// node-fault batch counts as one operation but applies up to BatchSize
	// deltas.
	Ops int
	// Seed derives the workload, the operation stream, and every routing
	// decision; two runs with equal Config produce identical results.
	Seed int64
	// TopoSeed generates the Indriya testbed (default 1, the evaluation one).
	TopoSeed int64
	// BatchEvery injects a node-fault batch every BatchEvery operations
	// (0 disables batching).
	BatchEvery int
	// BatchSize caps the number of reroutes one node-fault batch carries.
	BatchSize int
	// OracleEvery checks the replay oracle every OracleEvery applied
	// deltas (0 = final check only).
	OracleEvery int
	// Metrics receives "sched.churn.*" counters; may be nil.
	Metrics obs.Sink
}

// DefaultConfig is the 500-flow operating point on the Indriya testbed.
func DefaultConfig() Config {
	return Config{
		Flows:       500,
		Channels:    8,
		Ops:         5_000,
		Seed:        1,
		TopoSeed:    1,
		BatchEvery:  50,
		BatchSize:   8,
		OracleEvery: 1_000,
	}
}

// Result reports one completed soak run.
type Result struct {
	Flows      int `json:"flows"`
	Channels   int `json:"channels"`
	Nodes      int `json:"nodes"`
	HyperSlots int `json:"hyperSlots"`

	// WarmupAdmitted/WarmupFailed count the initial admission deltas that
	// build the steady-state workload (excluded from the churn counters).
	WarmupAdmitted int `json:"warmupAdmitted"`
	WarmupFailed   int `json:"warmupFailed"`

	// Ops counts churn operations driven; Applied counts individual deltas
	// that committed (a batch contributes each of its deltas). Infeasible
	// operations were rolled back by the repair ladder's bottom; Skipped
	// operations had no legal move (no detour exists, nothing to remove).
	Ops        int `json:"ops"`
	Applied    int `json:"applied"`
	Infeasible int `json:"infeasible"`
	Skipped    int `json:"skipped"`
	Batches    int `json:"batches"`

	Adds      int `json:"adds"`
	Removes   int `json:"removes"`
	Reroutes  int `json:"reroutes"`
	Rebudgets int `json:"rebudgets"`

	// FallbackEvict/FallbackCascade/FallbackFull count applied deltas that
	// needed the deeper repair-ladder rungs.
	FallbackEvict   int `json:"fallbackEvict"`
	FallbackCascade int `json:"fallbackCascade"`
	FallbackFull    int `json:"fallbackFull"`

	ActiveFlows int `json:"activeFlows"`
	PlacedTx    int `json:"placedTx"`

	// OracleChecks counts replay-oracle checkpoints passed (the final
	// check included). A failed check aborts the run with an error.
	OracleChecks int `json:"oracleChecks"`
	// Digest is the canonical digest of the final schedule; with equal
	// Config it is identical across runs and machines.
	Digest string `json:"digest"`

	// HeapStartBytes/HeapEndBytes are live-heap samples (after two GCs,
	// which empty the sync.Pools) at the start and end of the churn phase:
	// with recycled grid storage the delta should stay near zero however
	// long the soak runs.
	HeapStartBytes uint64 `json:"heapStartBytes"`
	HeapEndBytes   uint64 `json:"heapEndBytes"`
}

// state is the mutable harness state shared by the generator, the live
// applier, and the oracle.
type state struct {
	cfg  Config
	rng  *rand.Rand
	gc   *graph.Graph
	pcfg scheduler.Config

	sched    *schedule.Schedule
	active   []*flow.Flow // sorted by ID (priority order)
	inactive []*flow.Flow

	log     [][]scheduler.BatchOp // committed calls pending oracle replay
	oSched  *schedule.Schedule
	oActive []*flow.Flow

	res *Result
}

// Run executes one soak. It returns an error on any oracle divergence,
// schedule-validation failure, or internal scheduler error; an infeasible
// delta is an expected outcome, not an error. ctx cancellation stops the
// run between operations and surfaces ctx.Err().
func Run(ctx context.Context, cfg Config) (*Result, error) {
	switch {
	case cfg.Flows <= 0:
		return nil, fmt.Errorf("soak: flows %d must be positive", cfg.Flows)
	case cfg.Channels <= 0 || cfg.Channels > topology.NumChannels:
		return nil, fmt.Errorf("soak: channels %d must be in [1, %d]", cfg.Channels, topology.NumChannels)
	case min(cfg.Ops, cfg.BatchEvery, cfg.BatchSize, cfg.OracleEvery) < 0:
		return nil, fmt.Errorf("soak: ops %d, batch every %d, batch size %d, and oracle every %d must be non-negative",
			cfg.Ops, cfg.BatchEvery, cfg.BatchSize, cfg.OracleEvery)
	}
	if cfg.TopoSeed == 0 {
		cfg.TopoSeed = 1
	}
	if cfg.BatchEvery > 0 && cfg.BatchSize <= 0 {
		cfg.BatchSize = 8
	}
	s, err := newState(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.warmup(ctx); err != nil {
		return nil, err
	}

	s.res.HeapStartBytes = liveHeap()

	sinceOracle := 0
	for op := 0; op < cfg.Ops; op++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		applied, err := s.step(op)
		if err != nil {
			return nil, err
		}
		s.res.Ops++
		sinceOracle += applied
		if cfg.OracleEvery > 0 && sinceOracle >= cfg.OracleEvery {
			if err := s.oracleCheck(); err != nil {
				return nil, err
			}
			sinceOracle = 0
		}
	}
	if err := s.oracleCheck(); err != nil {
		return nil, err
	}

	s.res.HeapEndBytes = liveHeap()

	s.finish()
	return s.res, nil
}

// liveHeap returns the heap in use after two collections. One is not
// enough: a sync.Pool moves what it holds to a victim cache at a
// collection and frees it only at the next, so after one the sample still
// counts the delta engine's pooled scratch and full-rung grids, or not,
// depending on what the last ops drew.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return mem.HeapAlloc
}

// newState builds the testbed, the candidate flow pool (2× the active
// target, routed peer-to-peer), and the empty live and oracle grids.
func newState(cfg Config) (*state, error) {
	tb, err := topology.Indriya(cfg.TopoSeed)
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	chs := topology.Channels(cfg.Channels)
	gc, err := tb.CommGraph(chs, 0.9)
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	gr, err := tb.ReuseGraph(chs)
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pool, err := flow.Generate(rng, gc, flow.GenConfig{
		NumFlows:     2 * cfg.Flows,
		MinPeriodExp: minPeriodExp,
		MaxPeriodExp: maxPeriodExp,
	})
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	if err := routing.Assign(pool, gc, routing.Config{Traffic: routing.PeerToPeer}); err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	hyper, err := flow.Hyperperiod(pool)
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	sched, err := schedule.New(hyper, cfg.Channels, gc.Len())
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	oSched, err := schedule.New(hyper, cfg.Channels, gc.Len())
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	return &state{
		cfg: cfg,
		rng: rng,
		gc:  gc,
		pcfg: scheduler.Config{
			Algorithm:   scheduler.RC,
			NumChannels: cfg.Channels,
			RhoT:        RhoT,
			HopGR:       gr.AllPairsHop(),
			Metrics:     cfg.Metrics,
		},
		sched:    sched,
		oSched:   oSched,
		inactive: pool,
		res: &Result{
			Flows:      cfg.Flows,
			Channels:   cfg.Channels,
			Nodes:      gc.Len(),
			HyperSlots: hyper,
		},
	}, nil
}

// warmup admits the first Flows pool flows (in priority order) through the
// same delta path the churn loop uses; failures leave the flow in the pool.
func (s *state) warmup(ctx context.Context) error {
	n := s.cfg.Flows
	if n > len(s.inactive) {
		n = len(s.inactive)
	}
	cands := s.inactive[:n]
	s.inactive = append([]*flow.Flow(nil), s.inactive[n:]...)
	for _, f := range cands {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := s.apply([]scheduler.BatchOp{{Kind: scheduler.BatchAdd, Flow: f}})
		if err != nil {
			return fmt.Errorf("soak warmup: %w", err)
		}
		if !res.Schedulable {
			s.res.WarmupFailed++
			s.inactive = append(s.inactive, f)
			continue
		}
		s.res.WarmupAdmitted++
	}
	return nil
}

// apply runs ops as one atomic delta call on the live grid. When the call
// commits it adopts the post-op workload and logs ops, as issued, for the
// oracle.
func (s *state) apply(ops []scheduler.BatchOp) (*scheduler.BatchResult, error) {
	res, err := scheduler.ApplyDeltaBatch(s.sched, s.active, ops, s.pcfg)
	if err == nil && res.Schedulable {
		s.active = res.Flows
		s.log = append(s.log, ops)
	}
	return res, err
}

// churn applies one churn operation's ops and returns how many deltas
// committed: all of them, with their fallbacks recorded, or none when the
// call is infeasible. format and args describe the operation in a returned
// error.
func (s *state) churn(ops []scheduler.BatchOp, format string, args ...any) (int, error) {
	res, err := s.apply(ops)
	if err != nil {
		return 0, fmt.Errorf("soak "+format+": %w", append(args, err)...)
	}
	if !res.Schedulable {
		s.res.Infeasible++
		return 0, nil
	}
	for _, fb := range res.Fallbacks {
		s.countFallback(fb)
	}
	s.res.Applied += len(ops)
	return len(ops), nil
}

// step generates and applies one churn operation, returning how many deltas
// committed.
func (s *state) step(op int) (int, error) {
	if s.cfg.BatchEvery > 0 && (op+1)%s.cfg.BatchEvery == 0 {
		return s.stepBatch()
	}
	// The mix self-balances around the active-flow target: below it adds
	// dominate, above it removals do.
	addCut := 40
	if len(s.active) >= s.cfg.Flows {
		addCut = 15
	}
	const removeCut = 55 // adds + removes always take 55% combined
	r := s.rng.Intn(100)
	switch {
	case r < addCut && len(s.inactive) > 0:
		return s.stepAdd()
	case r < removeCut && len(s.active) > 1:
		return s.stepRemove()
	case r < 85 && len(s.active) > 0:
		return s.stepReroute()
	case len(s.active) > 0:
		return s.stepRebudget()
	default:
		s.res.Skipped++
		return 0, nil
	}
}

func (s *state) stepAdd() (int, error) {
	i := s.rng.Intn(len(s.inactive))
	f := s.inactive[i]
	s.res.Adds++
	n, err := s.churn([]scheduler.BatchOp{{Kind: scheduler.BatchAdd, Flow: f}}, "add flow %d", f.ID)
	if n > 0 {
		s.inactive = slices.Delete(s.inactive, i, i+1)
	}
	return n, err
}

func (s *state) stepRemove() (int, error) {
	f := s.active[s.rng.Intn(len(s.active))]
	s.res.Removes++
	n, err := s.churn([]scheduler.BatchOp{{Kind: scheduler.BatchRemove, FlowID: f.ID}}, "remove flow %d", f.ID)
	if n > 0 {
		s.inactive = append(s.inactive, f)
	}
	return n, err
}

// stepReroute is the single-flow fault model: a random relay on the flow's
// route fails and the flow must detour around it.
func (s *state) stepReroute() (int, error) {
	f := s.active[s.rng.Intn(len(s.active))]
	if len(f.Route) < 2 {
		s.res.Skipped++
		return 0, nil // no relay to fail
	}
	avoid := f.Route[s.rng.Intn(len(f.Route)-1)].To
	detour := routing.PathLinks(s.gc.ShortestPathAvoiding(f.Src, f.Dst, []int{avoid}))
	if detour == nil || slices.Equal(detour, f.Route) {
		s.res.Skipped++
		return 0, nil
	}
	s.res.Reroutes++
	return s.churn([]scheduler.BatchOp{{Kind: scheduler.BatchReroute, FlowID: f.ID, Route: detour}},
		"reroute flow %d", f.ID)
}

// stepRebudget toggles a flow's retransmission budget — installing a random
// per-hop budget where none is set, clearing it otherwise — and re-places
// the flow on its own route, exactly the manage loop's re-budgeting motion.
func (s *state) stepRebudget() (int, error) {
	f := s.active[s.rng.Intn(len(s.active))]
	var budget []int
	if len(f.TxBudget) == 0 {
		budget = make([]int, len(f.Route))
		for h := range budget {
			budget[h] = 1 + s.rng.Intn(2)
		}
	}
	s.res.Rebudgets++
	return s.churn([]scheduler.BatchOp{{Kind: scheduler.BatchRebudget, FlowID: f.ID, Budget: budget}},
		"rebudget flow %d", f.ID)
}

// stepBatch is the node-fault model: a random relay crashes and every
// active flow crossing it (capped at BatchSize, endpoints excluded — those
// flows cannot be saved) detours around it in one atomic batch.
func (s *state) stepBatch() (int, error) {
	node := s.rng.Intn(s.gc.Len())
	down := []int{node}
	var ops []scheduler.BatchOp
	for _, f := range s.active {
		if len(ops) >= s.cfg.BatchSize {
			break
		}
		if f.Src == node || f.Dst == node || !crossesNode(f.Route, node) {
			continue
		}
		detour := routing.PathLinks(s.gc.ShortestPathAvoiding(f.Src, f.Dst, down))
		if detour == nil {
			continue
		}
		ops = append(ops, scheduler.BatchOp{
			Kind:   scheduler.BatchReroute,
			FlowID: f.ID,
			Route:  detour,
		})
	}
	if len(ops) == 0 {
		s.res.Skipped++
		return 0, nil
	}
	s.res.Batches++
	s.res.Reroutes += len(ops)
	return s.churn(ops, "fault batch (node %d)", node)
}

func (s *state) countFallback(fb scheduler.Fallback) {
	switch fb {
	case scheduler.FallbackEvict:
		s.res.FallbackEvict++
	case scheduler.FallbackCascade:
		s.res.FallbackCascade++
	case scheduler.FallbackFull:
		s.res.FallbackFull++
	}
}

// oracleCheck replays the pending log into the oracle grid, one
// ApplyDeltaBatch call per logged entry (metrics detached), and requires the
// two schedules' canonical digests to match exactly, then validates the live
// schedule's conflict and reuse-distance invariants.
func (s *state) oracleCheck() error {
	ocfg := s.pcfg
	ocfg.Metrics = nil
	for i, ops := range s.log {
		res, err := scheduler.ApplyDeltaBatch(s.oSched, s.oActive, ops, ocfg)
		if err == nil && !res.Schedulable {
			err = fmt.Errorf("oracle found the call infeasible (flow %d)", res.FailedFlow)
		}
		if err != nil {
			return fmt.Errorf("soak oracle: replaying call %d/%d: %w", i+1, len(s.log), err)
		}
		s.oActive = res.Flows
	}
	s.log = s.log[:0]
	live, oracle := Digest(s.sched), Digest(s.oSched)
	if live != oracle {
		return fmt.Errorf("soak oracle: schedule drift after %d applied deltas: live %s, oracle replay %s",
			s.res.Applied, live, oracle)
	}
	if err := s.sched.Validate(s.pcfg.HopGR, RhoT); err != nil {
		return fmt.Errorf("soak oracle: live schedule invalid: %w", err)
	}
	if err := audit(s.sched, s.active); err != nil {
		return fmt.Errorf("soak audit after %d applied deltas: %w", s.res.Applied, err)
	}
	s.res.OracleChecks++
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Count("sched.churn.oracle_checks", 1)
	}
	return nil
}

// audit checks the raw transmission list against the harness's own record
// of the active workload, sharing no code with the scheduler (the replay
// oracle cannot catch a bug both grids share): every transmission belongs
// to an active flow and sits on that flow's current route at its hop index,
// and every hop of every active flow holds exactly one transmission per
// instance and budgeted attempt (one attempt when no budget is installed —
// the harness schedules without retransmission).
func audit(sched *schedule.Schedule, active []*flow.Flow) error {
	perHop := make(map[int][]int, len(active))
	byID := make(map[int]*flow.Flow, len(active))
	for _, f := range active {
		if len(f.TxBudget) > 0 && len(f.TxBudget) != len(f.Route) {
			return fmt.Errorf("flow %d has a %d-hop budget on a %d-hop route", f.ID, len(f.TxBudget), len(f.Route))
		}
		byID[f.ID] = f
		perHop[f.ID] = make([]int, len(f.Route))
	}
	for _, tx := range sched.Txs() {
		f := byID[tx.FlowID]
		if f == nil {
			return fmt.Errorf("transmission %+v belongs to inactive flow %d", tx, tx.FlowID)
		}
		if tx.Hop < 0 || tx.Hop >= len(f.Route) || tx.Link != f.Route[tx.Hop] {
			return fmt.Errorf("flow %d transmission %+v is off its current route %v", f.ID, tx, f.Route)
		}
		perHop[f.ID][tx.Hop]++
	}
	for _, f := range active {
		for h, n := range perHop[f.ID] {
			// The retransmission-budget rule `wsansim validate` checks: the
			// soak schedules without uniform retries, so flows without a
			// budget fall back to one attempt per hop.
			if want := sched.NumSlots() / f.Period * f.HopAttempts(h, 1); n != want {
				return fmt.Errorf("flow %d hop %d holds %d transmissions, want %d", f.ID, h, n, want)
			}
		}
	}
	return nil
}

// finish seals the result: the end state, its digest, and the final
// counters.
func (s *state) finish() {
	r := s.res
	r.ActiveFlows = len(s.active)
	r.PlacedTx = s.sched.Len()
	r.Digest = Digest(s.sched)
	if m := s.cfg.Metrics; m != nil {
		const p = "sched.churn."
		m.Count(p+"ops", int64(r.Ops))
		m.Count(p+"applied", int64(r.Applied))
		m.Count(p+"infeasible", int64(r.Infeasible))
		m.Count(p+"skipped", int64(r.Skipped))
		m.Count(p+"batches", int64(r.Batches))
		m.Count(p+"fallback_evict", int64(r.FallbackEvict))
		m.Count(p+"fallback_cascade", int64(r.FallbackCascade))
		m.Count(p+"fallback_full", int64(r.FallbackFull))
	}
}

// Digest is the canonical digest of a schedule's contents: its
// transmissions sorted into a history-independent order and hashed. Two
// schedules hold the same cells iff their digests are equal, whatever
// sequence of placements, removals, and rollbacks produced them.
func Digest(s *schedule.Schedule) string {
	txs := append([]schedule.Tx(nil), s.Txs()...)
	sort.Slice(txs, func(i, j int) bool {
		a, b := txs[i], txs[j]
		if a.Slot != b.Slot {
			return a.Slot < b.Slot
		}
		if a.Offset != b.Offset {
			return a.Offset < b.Offset
		}
		if a.FlowID != b.FlowID {
			return a.FlowID < b.FlowID
		}
		if a.Instance != b.Instance {
			return a.Instance < b.Instance
		}
		if a.Hop != b.Hop {
			return a.Hop < b.Hop
		}
		return a.Attempt < b.Attempt
	})
	h := sha256.New()
	var buf []byte
	for _, tx := range txs {
		buf = fmt.Appendf(buf[:0], "%d/%d/%d/%d/%d>%d@%d.%d;",
			tx.FlowID, tx.Instance, tx.Hop, tx.Attempt,
			tx.Link.From, tx.Link.To, tx.Slot, tx.Offset)
		h.Write(buf)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func crossesNode(route []flow.Link, node int) bool {
	for _, l := range route {
		if l.From == node || l.To == node {
			return true
		}
	}
	return false
}
