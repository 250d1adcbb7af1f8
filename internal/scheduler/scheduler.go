// Package scheduler implements the three fixed-priority TSCH scheduling
// algorithms the paper evaluates (Sec. V and VII):
//
//   - NR — the standard WirelessHART policy: no channel reuse, each
//     (slot, offset) cell holds at most one transmission.
//   - RA — aggressive reuse (TASA-like): every transmission goes into the
//     earliest feasible slot, sharing a channel whenever the reuse-hop
//     constraint at ρ_t holds, preferring the most-loaded compatible offset.
//   - RC — Reuse Conservatively (Algorithm 1): a transmission is first
//     placed without reuse (ρ = ∞); only if the flow's laxity (Eq. 1) turns
//     negative is reuse introduced, starting from the reuse-graph diameter
//     λ_R and decreasing toward ρ_t until the laxity is non-negative.
//
// All three share one engine: flows are processed in priority order, every
// release within the hyperperiod is scheduled, and each hop of a source
// route occupies a primary plus (optionally) a retransmission slot, in
// sequence.
package scheduler

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"wsan/internal/flow"
	"wsan/internal/graph"
	"wsan/internal/obs"
	"wsan/internal/schedule"
)

// Algorithm selects the scheduling policy.
type Algorithm int

const (
	// NR is Deadline-Monotonic scheduling with no channel reuse.
	NR Algorithm = iota + 1
	// RA is Deadline-Monotonic scheduling with aggressive channel reuse.
	RA
	// RC is the paper's Reuse Conservatively algorithm.
	RC
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case NR:
		return "NR"
	case RA:
		return "RA"
	case RC:
		return "RC"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// rhoInf is the internal "no reuse" sentinel for the ρ search.
const rhoInf = int(^uint(0) >> 1)

// Config parameterizes a scheduling run.
type Config struct {
	// Algorithm is the policy to run. Required.
	Algorithm Algorithm
	// NumChannels is |M|, the number of channel offsets available.
	NumChannels int
	// RhoT is the minimum channel-reuse hop distance ρ_t (the paper uses 2).
	// Ignored by NR.
	RhoT int
	// HopGR is the all-pairs hop matrix of the channel-reuse graph G_R.
	// Required for RA and RC.
	HopGR *graph.HopMatrix
	// Retransmit reserves a second dedicated slot per hop (source routing,
	// Sec. VII). The paper's experiments all enable it.
	Retransmit bool
	// FixedRho is an ablation switch for RC: when a transmission needs
	// reuse, jump directly to ρ_t instead of searching downward from the
	// reuse-graph diameter λ_R. It isolates the contribution of RC's
	// maximize-hop-distance heuristic (Sec. V-C) to reuse safety. Ignored
	// by NR and RA.
	FixedRho bool
	// Metrics, when non-nil, receives scheduling counters (slots examined,
	// laxity-test outcomes, reuse decisions, ρ-search steps) under the
	// "scheduler.<alg>." prefix, flushed once per run. Nil disables
	// observability at near-zero cost.
	Metrics obs.Sink
	// Scratch, when non-nil, is an existing schedule whose backing storage
	// Run recycles (via Reset) instead of allocating a fresh grid — the
	// dominant allocation cost of high-volume trial loops. The caller hands
	// over ownership: the scratch's previous contents are destroyed and the
	// returned Result.Schedule is the same object. Placement decisions are
	// identical either way.
	Scratch *schedule.Schedule
	// scanPaths routes findSlot and laxity through the pre-index reference
	// scans instead of the bitset/prefix-sum fast paths. Unexported: only
	// in-package tests can set it, to prove both paths place identically.
	scanPaths bool
}

func (c Config) attempts() int {
	if c.Retransmit {
		return 2
	}
	return 1
}

// RetryDepth returns the per-hop attempt count sched gives the flows
// without a TxBudget: the fallback of Flow.HopAttempts, and the depth a
// later placement must keep (Retransmit exactly when it is 2). It is read
// off the transmissions of the unbudgeted flows in flows, because budgeted
// flows may hold retries the unbudgeted ones were never given. When none
// of them holds a transmission, it is 2 if the schedule holds any
// retransmission and 1 otherwise.
func RetryDepth(sched *schedule.Schedule, flows []*flow.Flow) int {
	unbudgeted := make(map[int]bool, len(flows))
	for _, f := range flows {
		unbudgeted[f.ID] = len(f.TxBudget) == 0
	}
	depth, retries := 0, false
	for _, tx := range sched.Txs() {
		retries = retries || tx.Attempt > 0
		if unbudgeted[tx.FlowID] && tx.Attempt+1 > depth {
			depth = tx.Attempt + 1
		}
	}
	switch {
	case depth > 0:
		return depth
	case retries:
		return 2
	}
	return 1
}

// validateAlgorithm checks that cfg names a known algorithm and carries the
// inputs it needs: the G_R hop matrix and ρ_t for the reuse policies.
func (c Config) validateAlgorithm() error {
	switch c.Algorithm {
	case NR:
	case RA, RC:
		if c.HopGR == nil {
			return fmt.Errorf("scheduler: %v requires the G_R hop matrix", c.Algorithm)
		}
		if c.RhoT < 1 {
			return fmt.Errorf("scheduler: %v requires RhoT ≥ 1, have %d", c.Algorithm, c.RhoT)
		}
	default:
		return fmt.Errorf("scheduler: unknown algorithm %v", c.Algorithm)
	}
	return nil
}

// validateRouted checks that f is valid on its own and has a route.
func validateRouted(f *flow.Flow) error {
	if err := f.Validate(); err != nil {
		return fmt.Errorf("scheduler: %w", err)
	}
	if len(f.Route) == 0 {
		return fmt.Errorf("scheduler: flow %d has no route", f.ID)
	}
	return nil
}

// Result is the outcome of a scheduling run.
type Result struct {
	// Schedule holds all placed transmissions; partially filled if the flow
	// set is unschedulable.
	Schedule *schedule.Schedule
	// Schedulable reports whether every transmission of every flow met its
	// deadline.
	Schedulable bool
	// FailedFlow is the ID of the first flow that missed a deadline, or -1.
	FailedFlow int
	// Elapsed is the wall-clock scheduling time (the paper's Fig. 6 metric).
	Elapsed time.Duration
	// LambdaR is the reuse-graph diameter used as the initial ρ (RC only;
	// zero otherwise).
	LambdaR int
}

// Run schedules the flow set (which must already be in priority order with
// routes assigned — see flow.AssignDM and routing.Assign) and returns the
// resulting schedule. A workload that misses a deadline yields
// Schedulable=false, not an error; errors indicate invalid input.
func Run(flows []*flow.Flow, cfg Config) (*Result, error) {
	if len(flows) == 0 {
		return nil, fmt.Errorf("scheduler: empty flow set")
	}
	if cfg.NumChannels <= 0 {
		return nil, fmt.Errorf("scheduler: NumChannels %d must be positive", cfg.NumChannels)
	}
	if err := cfg.validateAlgorithm(); err != nil {
		return nil, err
	}
	numNodes := 0
	for _, f := range flows {
		if err := validateRouted(f); err != nil {
			return nil, err
		}
		for _, l := range f.Route {
			if l.From >= numNodes {
				numNodes = l.From + 1
			}
			if l.To >= numNodes {
				numNodes = l.To + 1
			}
		}
	}
	if cfg.HopGR != nil && cfg.HopGR.Len() > numNodes {
		numNodes = cfg.HopGR.Len()
	}
	hyper, err := flow.Hyperperiod(flows)
	if err != nil {
		return nil, fmt.Errorf("scheduler: %w", err)
	}
	sched := cfg.Scratch
	if sched != nil {
		if err := sched.Reset(hyper, cfg.NumChannels, numNodes); err != nil {
			return nil, fmt.Errorf("scheduler: %w", err)
		}
	} else {
		sched, err = schedule.New(hyper, cfg.NumChannels, numNodes)
		if err != nil {
			return nil, fmt.Errorf("scheduler: %w", err)
		}
	}
	res := &Result{Schedule: sched, FailedFlow: -1}
	if cfg.Algorithm == RC {
		res.LambdaR = cfg.HopGR.Diameter()
	}
	total := 0
	for _, f := range flows {
		total += (hyper / f.Period) * f.TotalAttempts(cfg.attempts())
	}
	sched.Reserve(total)

	start := time.Now()
	defer func() { res.Elapsed = time.Since(start) }()

	eng := newEngine(cfg, sched, res.LambdaR)
	// Deferred after the Elapsed assignment above so it runs first (LIFO);
	// measure independently so the flushed histogram sample is non-zero.
	defer func() { eng.flushMetrics(time.Since(start)) }()
	for _, f := range flows {
		for inst := 0; inst < hyper/f.Period; inst++ {
			ok, err := eng.scheduleInstance(f, inst)
			if err != nil {
				return nil, err
			}
			if !ok {
				res.Schedulable = false
				res.FailedFlow = f.ID
				return res, nil
			}
		}
	}
	res.Schedulable = true
	return res, nil
}

// engine carries the mutable scheduling state.
type engine struct {
	cfg     Config
	sched   *schedule.Schedule
	lambdaR int
	mets    schedCounters

	// Index-path state. routePairs holds the current flow's per-hop
	// conflict-count handles so laxity issues zero map lookups; hopAtt is
	// the flow's resolved per-hop attempt count (budgeted or uniform);
	// occBuf is findSlot's reusable OccupiedOffsets buffer (NR/RA only);
	// cellBuf holds the positions of the cell being read (see Cell).
	curFlow    *flow.Flow
	routePairs []*schedule.PairCount
	hopAtt     []int
	occBuf     []int
	cellBuf    []int32
	statsBase  schedule.IndexStats // schedule index stats at engine creation

	// placedShared records, for the placement the engine just returned,
	// whether the chosen cell already held a transmission — every placement
	// path knows this as a byproduct, sparing scheduleInstance a Cell lookup.
	placedShared bool

	// rowU/rowV are the current attempt's hoisted G_R distance rows
	// (rowU[y] = d(u,y), rowV[x] = d(x,v) by symmetry), bound by bindRows;
	// nil when the matrix does not cover every schedule node.
	rowU, rowV []uint8

	// cands caches one RC placement attempt's candidate slots (see
	// buildCands); candDist and candLoad hold each full candidate's cells'
	// memoized minimum reuse-constraint distance and load by offset, filled
	// by evalCands on the attempt's first finite-ρ need (candsEval).
	// maxDistAll is the best
	// cell distance over every full candidate — the highest ρ at which the
	// descent can select anything other than the free candidate. All
	// buffers are reused across attempts.
	cands      []slotCand
	candDist   []int32
	candLoad   []int32
	candsEval  bool
	maxDistAll int32

	// Warm-start bookkeeping: the (link, deadline) key the candidate cache
	// was built for, and the slot this pair placed into since the build
	// (-1 = none). A retransmission attempt that follows its primary can
	// then re-adopt the cache's suffix instead of rebuilding — see
	// warmCands. candsValid drops on any placement that breaks the
	// single-own-mutation invariant.
	candsU, candsV, candsDead int
	candsPlaced               int
	candsValid                bool
	// candsVer is the schedule Version the cache reflects. notePlaced admits
	// exactly one own placement (ver+1); any other mutation — a delta-ladder
	// removal, rollback, or another engine's placement on a shared grid —
	// leaves the version stamps unequal and the cache is discarded instead
	// of warm-adopted.
	candsVer uint64

	// instD[h] is CountThrough(deadline) of routePairs[h] for the instance
	// being scheduled — the deadline term of Eq. 1 per hop pair. It is built
	// once per instance on first use and then maintained incrementally: each
	// committed placement can only change the busy-union of pairs that share
	// one of its two endpoints, and only at the placed slot, so the update is
	// a handful of integer compares per remaining hop instead of a prefix
	// query per pair per attempt. Valid only while instDOK and within one
	// scheduleInstance call (the deadline is fixed there).
	instD   []int32
	instDOK bool

	// laxDeadSum memoizes the deadline term of the attempt's laxity sums:
	// Σ CountThrough(deadline) over the remaining route pairs. It is fixed for
	// one placement attempt (the schedule is unmutated and the deadline and
	// remaining set don't change), so each candidate's conflict sum needs only
	// the CountThrough(slot) subtractions. Reset at the start of every
	// attempt that reaches the candidate cache (placeRC, warmCands).
	laxDeadSum int
	laxDeadOK  bool

	// laxBound memoizes a constant-time upper bound on the attempt's conflict
	// sum: Σ multiplicity × (NodeBusyCount(u) + NodeBusyCount(v)) over the
	// remaining route pairs. Any pair's busy-union count over any slot range
	// is at most the two endpoints' total busy-slot counts, so a candidate
	// with slack ≥ laxBound passes Eq. 1 without touching the prefix index —
	// the common case in uncongested regions of a sweep. Like laxDeadSum it
	// is fixed for one placement attempt; reset alongside it.
	laxBound   int
	laxBoundOK bool
}

// slotCand is one cached candidate slot of an RC placement attempt: a slot
// where both endpoints are free and its first free offset (-1 when every
// offset is occupied), recorded by buildCands. evalCands later fills the
// cell range (offset k−occLo at candDist[k]) and maxDist, the slot's best
// memoized cell distance, so the ρ levels skip incompatible slots with one
// comparison. laxFail marks a slot whose laxity was computed and found
// negative — a passing laxity returns immediately, so the memo only ever
// needs to record failures. Fields are int32 to keep the per-attempt append
// traffic compact; slot indices fit because a grid anywhere near 2^31 slots
// could not have been allocated.
type slotCand struct {
	slot    int32
	freeOff int32
	occLo   int32 // candDist[occLo:occHi] holds the slot's cells by offset
	occHi   int32
	maxDist int32
	laxFail bool
}

// newEngine prepares the scheduling state for one run over sched.
func newEngine(cfg Config, sched *schedule.Schedule, lambdaR int) engine {
	return engine{cfg: cfg, sched: sched, lambdaR: lambdaR,
		statsBase: sched.IndexStats()}
}

// recycle turns e into newEngine(cfg, sched, lambdaR) that keeps e's
// buffers: the per-hop handles and attempt counts, the occupancy buffer,
// the RC candidate tables and the per-instance deadline terms. Every
// placement path fills these before reading them, as it does across a run's
// flows. A nil sched unbinds e for pooling, dropping every pointer into a
// grid, a workload or a config.
func (e *engine) recycle(cfg Config, sched *schedule.Schedule, lambdaR int) {
	clear(e.routePairs[:cap(e.routePairs)])
	*e = engine{cfg: cfg, sched: sched, lambdaR: lambdaR,
		routePairs: e.routePairs[:0], hopAtt: e.hopAtt[:0], occBuf: e.occBuf[:0], cellBuf: e.cellBuf[:0], instD: e.instD[:0],
		cands: e.cands[:0], candDist: e.candDist[:0], candLoad: e.candLoad[:0]}
	if sched != nil {
		e.statsBase = sched.IndexStats()
	}
}

// setFlow binds the engine's per-flow index state (the route's conflict-count
// handles and resolved per-hop attempt counts) to f. Instances of the same
// flow share the binding.
func (e *engine) setFlow(f *flow.Flow) {
	if e.curFlow == f {
		return
	}
	e.curFlow = f
	e.routePairs = e.routePairs[:0]
	e.hopAtt = e.hopAtt[:0]
	base := e.cfg.attempts()
	// Only RC's laxity consults the pair handles; NR and RA skip the per-hop
	// map lookups entirely.
	needPairs := e.cfg.Algorithm == RC
	for hop, l := range f.Route {
		if needPairs {
			e.routePairs = append(e.routePairs, e.sched.Pair(l.From, l.To))
		}
		e.hopAtt = append(e.hopAtt, f.HopAttempts(hop, base))
	}
}

// bindRows hoists the current attempt's G_R distance rows for cellMinDist,
// or clears them when the matrix does not cover every schedule node (then
// cellMinDist falls back to bounds-checked Dist lookups, which treat
// out-of-range nodes as unreachable).
func (e *engine) bindRows(u, v int) {
	e.rowU, e.rowV = nil, nil
	if m := e.cfg.HopGR; m != nil && m.Len() >= e.sched.NumNodes() {
		e.rowU, e.rowV = m.Row(u), m.Row(v)
	}
}

// notePlaced records a committed placement for the candidate-cache warm
// start: the cache stays adoptable only while the single mutation since its
// build is one placement by its own pair. Anything else invalidates it.
func (e *engine) notePlaced(u, v, slot int) {
	if !e.candsValid {
		return
	}
	if u != e.candsU || v != e.candsV || e.candsPlaced >= 0 ||
		e.sched.Version() != e.candsVer+1 {
		// Wrong pair, a second placement, or a mutation the engine did not
		// make (delta removals/rollbacks on a shared grid) — not adoptable.
		e.candsValid = false
		return
	}
	e.candsPlaced = slot
	e.candsVer++
}

// schedCounters accumulates one run's observability counters locally (plain
// increments on the hot path); flushMetrics pushes the totals to the sink.
type schedCounters struct {
	placements      int64 // transmissions placed
	reusePlacements int64 // placements that landed in an already-occupied cell
	slotsExamined   int64 // candidate slots scanned by findSlot
	laxityPass      int64 // RC laxity tests with non-negative slack (Eq. 1)
	laxityFail      int64 // RC laxity tests that forced the ρ search onward
	rhoSteps        int64 // RC ρ-search iterations past the ρ=∞ attempt
	laxityFallbacks int64 // RC placements accepted with negative laxity
	deadlineMisses  int64 // flow instances that missed their deadline
	memoHits        int64 // reuse verdicts served from the ρ-search memo
	memoMisses      int64 // reuse verdicts computed fresh
}

// flushMetrics pushes the accumulated counters to the configured sink under
// the per-algorithm prefix ("scheduler.rc.", …). No-op without a sink.
func (e *engine) flushMetrics(elapsed time.Duration) {
	m := e.cfg.Metrics
	if m == nil {
		return
	}
	p := "scheduler." + strings.ToLower(e.cfg.Algorithm.String()) + "."
	c := &e.mets
	m.Count(p+"runs", 1)
	m.Count(p+"placements", c.placements)
	m.Count(p+"reuse_placements", c.reusePlacements)
	m.Count(p+"slots_examined", c.slotsExamined)
	m.Count(p+"laxity_pass", c.laxityPass)
	m.Count(p+"laxity_fail", c.laxityFail)
	m.Count(p+"rho_steps", c.rhoSteps)
	m.Count(p+"laxity_fallbacks", c.laxityFallbacks)
	m.Count(p+"deadline_misses", c.deadlineMisses)
	e.flushIndexMetrics(m)
	m.Observe(p+"elapsed_seconds", elapsed.Seconds())
}

// flushIndexMetrics pushes the index-layer work counters — how hard the
// O(1) structures worked since the engine was bound to its grid — to m.
// Unlike the per-algorithm ledger they are work counters: an optimization
// may move them without changing any placement.
func (e *engine) flushIndexMetrics(m obs.Sink) {
	st := e.sched.IndexStats()
	m.Count("sched.index.pair_queries", st.PairQueries-e.statsBase.PairQueries)
	m.Count("sched.index.pair_rebuilds", st.PairRebuilds-e.statsBase.PairRebuilds)
	m.Count("sched.index.reuse_memo_hits", e.mets.memoHits)
	m.Count("sched.index.reuse_memo_misses", e.mets.memoMisses)
}

// hopAttempts returns the attempt count for one hop of f: the flow's
// per-hop TxBudget entry when reliability-target budgeting installed one,
// the uniform policy attempt count otherwise. Served from the per-flow
// binding (setFlow), so the hot loops pay one slice load.
func (e *engine) hopAttempts(f *flow.Flow, hop int) int {
	return e.hopAtt[hop]
}

// scheduleInstance places every transmission of one release of flow f,
// returning false on a deadline miss. The engine only proposes cells whose
// endpoints are free, so a placement the schedule rejects is a bug in the
// engine, returned as an error rather than counted as a miss.
func (e *engine) scheduleInstance(f *flow.Flow, inst int) (bool, error) {
	e.setFlow(f)
	e.instDOK = false // the deadline term cache is per instance
	release := f.Release(inst)
	deadline := release + f.Deadline - 1 // last usable slot index
	prevSlot := release - 1
	total := f.TotalAttempts(e.cfg.attempts())
	seq := 0 // transmissions placed so far in this instance
	// One Tx is built per instance and mutated per attempt: the placement
	// chain reads only Hop, Attempt, and Link, and Slot/Offset are set
	// before the value is handed to Place.
	tx := schedule.Tx{FlowID: f.ID, Instance: inst}
	for hop, link := range f.Route {
		attempts := e.hopAttempts(f, hop)
		tx.Hop, tx.Link = hop, link
		for attempt := 0; attempt < attempts; attempt++ {
			tx.Attempt = attempt
			slot, offset, ok := e.placeOne(f, &tx, prevSlot+1, deadline, total-seq-1)
			if !ok {
				e.mets.deadlineMisses++
				return false, nil
			}
			tx.Slot, tx.Offset = slot, offset
			if err := e.sched.Place(tx); err != nil {
				return false, fmt.Errorf("scheduler: engine proposed a rejected cell: %w", err)
			}
			e.notePlaced(link.From, link.To, slot)
			e.bumpInstD(f, hop, link, slot)
			e.mets.placements++
			if e.placedShared {
				e.mets.reusePlacements++
			}
			prevSlot = slot
			seq++
		}
	}
	return true, nil
}

// placeOne chooses a (slot, offset) for tx within [earliest, deadline]
// according to the configured algorithm. remaining is |T_post|, the number
// of transmissions of this instance still to schedule after tx.
func (e *engine) placeOne(f *flow.Flow, tx *schedule.Tx, earliest, deadline, remaining int) (int, int, bool) {
	switch e.cfg.Algorithm {
	case NR:
		return e.findSlot(tx, earliest, deadline, rhoInf)
	case RA:
		return e.findSlot(tx, earliest, deadline, e.cfg.RhoT)
	case RC:
		return e.placeRC(f, tx, earliest, deadline, remaining)
	default:
		return 0, 0, false
	}
}

// placeRC is the inner loop of Algorithm 1: try without reuse, then with
// reuse at decreasing hop distances, accepting the first placement whose
// flow laxity is non-negative.
//
// When laxity never reaches zero, the paper schedules anyway ("if s ≤ d_i
// then schedule"). The fallback keeps the earliest feasible slot found —
// lower ρ relaxes the reuse constraint, so candidate slots are monotonically
// non-increasing and an earlier slot never costs schedulability — and, among
// placements tied on that slot, the most permissive (highest-ρ) one.
//
// The index path resolves the whole descent from the candidate cache built
// once per attempt (buildCands, evaluated on first finite-ρ need by
// evalCands). A cold attempt first tests ρ=∞ alone — the first non-full
// endpoint-free slot, where the common RC outcome, a laxity pass, places —
// and lists the candidates only when that test fails. Three regimes shortcut
// the level-by-level loop without changing any placement relative to
// placeRCRef:
//
//   - when even the earliest schedulable slot's deadline budget is negative,
//     no level can pass the laxity test (the conflict sum only subtracts
//     further), so placeRCFallback scans directly to the slot the descent's
//     fallback rule would keep and stops there;
//   - when ρ=∞ failed at the terminal free slot and noLevelPasses bounds the
//     laxity of every candidate below zero, the same scan runs without the
//     candidate list (placeRCCertified);
//   - levels above the best candidate reuse distance (maxDistAll) cannot
//     select any full slot, so the loop starts at min(λ_R, maxDistAll) with
//     the skipped levels resolved arithmetically.
//
// The skipped-level arithmetic and the certified scan keep the scheduling
// counters exactly as the full loop would have; the deadline-budget scan
// keeps placements, fallbacks, and deadline misses exact but advances the
// per-level counters (ρ steps, laxity failures, slots examined, memo
// traffic) as one exhausted descent rather than replaying every level — see
// placeRCFallback.
func (e *engine) placeRC(f *flow.Flow, tx *schedule.Tx, earliest, deadline, remaining int) (int, int, bool) {
	if e.cfg.scanPaths {
		return e.placeRCRef(f, tx, earliest, deadline, remaining)
	}
	u, v := tx.Link.From, tx.Link.To
	rhoT := e.cfg.RhoT
	nLevels := 0
	if e.lambdaR >= rhoT {
		nLevels = e.lambdaR - rhoT + 1
		if e.cfg.FixedRho {
			nLevels = 1 // ablation: no hop-distance maximization
		}
	}
	s0 := e.sched.NextSharedFreeSlot(u, v, earliest, deadline)
	if s0 < 0 {
		e.mets.rhoSteps += int64(nLevels) // the empty descent still stepped
		return 0, 0, false
	}
	if nLevels > 0 && deadline-s0-remaining < 0 {
		return e.placeRCFallback(u, v, s0, deadline, nLevels)
	}
	cold := !e.warmCands(u, v, s0, deadline)
	if cold {
		// ρ = ∞ before the candidate list: its one placement is the first
		// non-full endpoint-free slot, the list's terminal candidate. On a
		// pass the list is never needed; slotsExamined still counts the
		// endpoint-free slots of [s0, sf] that buildCands would have listed.
		e.laxDeadOK, e.laxBoundOK = false, false
		sf := e.sched.NextSharedNonFullSlot(u, v, s0, deadline)
		if sf >= 0 {
			lax := e.laxity(f, tx, sf, deadline, remaining)
			if lax >= 0 {
				e.mets.slotsExamined += int64(sf - s0 + 1 - e.sched.BusyUnionCount(u, v, s0, sf))
				e.mets.laxityPass++
				e.placedShared = false
				e.candsValid = false // the cache still describes an earlier attempt
				return sf, e.sched.FirstFreeOffset(sf), true
			}
			if nLevels > 0 {
				if deadline-sf-remaining < 0 {
					lax -= e.conflicts(f, tx, sf, deadline) // laxity's cheap exit left C(sf) out
				}
				if e.noLevelPasses(f, tx, s0, sf, deadline, remaining, lax) {
					return e.placeRCCertified(u, v, s0, sf, deadline, nLevels)
				}
			}
		}
		e.buildCands(u, v, s0, deadline)
	}
	// ρ = ∞ level: at most one candidate — always the last — offers a free
	// cell, and under least-loaded tie-breaking it wins outright. A cold
	// attempt has already seen it fail the laxity test.
	fbSlot, fbOffset, fbOK, fbShared := 0, 0, false, false
	freeIdx := -1
	if c := &e.cands[len(e.cands)-1]; c.freeOff >= 0 {
		freeIdx = len(e.cands) - 1
		slot := int(c.slot)
		if !cold && e.laxity(f, tx, slot, deadline, remaining) >= 0 {
			e.mets.laxityPass++
			e.placedShared = false
			return slot, int(c.freeOff), true
		}
		c.laxFail = true
		e.mets.laxityFail++
		fbSlot, fbOffset, fbOK = slot, int(c.freeOff), true
	}
	if nLevels == 0 {
		// Reuse impossible on this G_R; keep the ρ=∞ result.
		if fbOK {
			e.mets.laxityFallbacks++
			e.placedShared = false
		}
		return fbSlot, fbOffset, fbOK
	}
	rhoStart := e.lambdaR
	if e.cfg.FixedRho {
		rhoStart = rhoT
	}
	e.evalCands(u, v)
	rho := rhoStart
	if int(e.maxDistAll) < rho {
		// Levels above the best candidate distance select no full slot:
		// each re-finds the free candidate (already a memoized laxity
		// failure, tied on its own slot) or nothing at all.
		stop := int(e.maxDistAll)
		if stop < rhoT-1 {
			stop = rhoT - 1
		}
		e.mets.rhoSteps += int64(rho - stop)
		if freeIdx >= 0 {
			e.mets.laxityFail += int64(rho - stop)
		}
		rho = stop
	}
	for ; rho >= rhoT; rho-- {
		e.mets.rhoSteps++
		ci, offset, ok := e.rcFind(rho)
		if !ok {
			continue
		}
		c := &e.cands[ci]
		if !c.laxFail {
			slot := int(c.slot)
			if e.laxity(f, tx, slot, deadline, remaining) >= 0 {
				e.mets.laxityPass++
				e.placedShared = c.freeOff < 0
				return slot, offset, true
			}
			c.laxFail = true
		}
		e.mets.laxityFail++
		if !fbOK || int(c.slot) < fbSlot {
			// Strictly earlier only: on a slot tie the earlier-tried
			// (higher-ρ) placement stands.
			fbSlot, fbOffset, fbOK, fbShared = int(c.slot), offset, true, c.freeOff < 0
		}
	}
	if fbOK {
		e.mets.laxityFallbacks++
		e.placedShared = fbShared
	}
	return fbSlot, fbOffset, fbOK
}

// warmCands re-adopts the previous attempt's candidate cache when it is
// provably identical to what buildCands would produce: same link, same
// deadline, and exactly one schedule mutation since the build — this pair's
// own committed placement (a retransmission attempt immediately follows its
// primary on the same link). That placement made its slot endpoint-busy,
// removing it from the candidate window, and touched no other slot's
// occupancy, so the cache's suffix from s0 on — free offsets, occupancy
// ranges, reuse distances, loads — is byte-for-byte what a cold rebuild
// would recompute. Only the laxity memos go stale (the grid and the
// remaining-transmission count both changed), so they are cleared, and
// maxDistAll is re-reduced over the surviving suffix. An attempt that
// placed on the cache's free terminal slot invalidates instead: a rebuild
// would scan fresh slots past it (the drop loop then consumes the whole
// cache). The attempt must also start past the placed slot: a later flow
// whose first hop is the pair's link under the same deadline starts again
// from its own release, before the cache's first slot, and the stale cache
// would still list the slot just made endpoint-busy. The suffix counts into
// slotsExamined as a rebuild would; its cells count as memo hits — their
// reuse verdicts are served from cache.
func (e *engine) warmCands(u, v, s0, deadline int) bool {
	if !e.candsValid || u != e.candsU || v != e.candsV ||
		deadline != e.candsDead || e.candsPlaced < 0 || s0 <= e.candsPlaced ||
		e.sched.Version() != e.candsVer {
		return false
	}
	k := 0
	for k < len(e.cands) && int(e.cands[k].slot) < s0 {
		k++
	}
	if k == len(e.cands) {
		e.candsValid = false
		return false
	}
	// Shift the suffix to the front instead of reslicing forward: the cache
	// is rebuilt in place every cold attempt, and moving the base pointer
	// would permanently bleed append capacity from the backing array.
	if k > 0 {
		n := copy(e.cands, e.cands[k:])
		e.cands = e.cands[:n]
	}
	e.candsPlaced = -1
	e.laxDeadOK, e.laxBoundOK = false, false
	maxAll := int32(-1)
	for i := range e.cands {
		c := &e.cands[i]
		c.laxFail = false
		if c.freeOff < 0 && c.maxDist > maxAll {
			maxAll = c.maxDist
		}
	}
	e.mets.slotsExamined += int64(len(e.cands))
	if e.candsEval {
		e.maxDistAll = maxAll
		e.mets.memoHits += int64(e.cands[len(e.cands)-1].occHi - e.cands[0].occLo)
	}
	return true
}

// placeRCFallback resolves an RC descent whose laxity test cannot pass at
// any level: deadline − s0 − remaining is already negative at the earliest
// schedulable slot, and the conflict sum only subtracts further, so every
// level's find lands in the fallback accumulator and the loop never returns
// early. The minimum fallback slot over the whole descent is then the first
// slot feasible at ρ_t — as ρ drops the chosen slot only moves earlier,
// never later — and the placement that first reaches it is the most
// permissive level ρ_hi = min(maxDist, ρ_start), whose offset choice stands
// on every lower (slot-tied) level. A slot with a free cell is feasible at
// every level including ρ=∞, so the scan stops at the first slot that is
// either non-full or reuse-compatible at ρ_t, without materializing the
// candidate cache the abandoned descent would have built.
//
// Placements, the fallback count, and deadline misses are exactly those of
// the level-by-level loop; the per-level counters (laxity failures, slots
// examined, memo traffic) are advanced for the one resolving slot only —
// levels that would have re-found later slots the scan never reaches are
// not replayed. The laxity-failure ledger credits one failure per level
// that provably found this slot (all nLevels plus ρ=∞ when it is non-full,
// the ρ_hi…ρ_t band when reuse was required).
func (e *engine) placeRCFallback(u, v, s0, deadline, nLevels int) (int, int, bool) {
	e.mets.rhoSteps += int64(nLevels)
	rhoT := e.cfg.RhoT
	rhoStart := e.lambdaR
	if e.cfg.FixedRho {
		rhoStart = rhoT
	}
	e.bindRows(u, v)
	for s := s0; s >= 0; s = e.sched.NextSharedFreeSlot(u, v, s+1, deadline) {
		e.mets.slotsExamined++
		if !e.sched.SlotFull(s) {
			e.mets.laxityFail += int64(nLevels) + 1
			e.mets.laxityFallbacks++
			e.placedShared = false
			return s, e.sched.FirstFreeOffset(s), true
		}
		m := e.sched.NumOffsets() // a full slot occupies exactly offsets 0..M−1
		e.candDist, e.candLoad = slices.Grow(e.candDist[:0], m)[:m], slices.Grow(e.candLoad[:0], m)[:m]
		maxDist := e.slotDists(u, v, s, e.candDist, e.candLoad)
		e.mets.memoMisses += int64(m)
		if int(maxDist) < rhoT {
			continue // no cell compatible even at ρ_t: no level places here
		}
		rhoHi := int(maxDist)
		if rhoHi > rhoStart {
			rhoHi = rhoStart
		}
		best, bestLoad := -1, int32(0)
		for off, d := range e.candDist {
			if int(d) < rhoHi {
				continue
			}
			if best < 0 || e.candLoad[off] < bestLoad {
				best, bestLoad = off, e.candLoad[off]
			}
		}
		e.mets.laxityFail += int64(rhoHi - rhoT + 1)
		e.mets.laxityFallbacks++
		e.placedShared = true
		return s, best, true
	}
	// No free cell and no full slot compatible even at ρ_t anywhere in the
	// window: no level of the descent found any placement.
	return 0, 0, false
}

// certPieces is how many slot ranges noLevelPasses splits [s0, sf] into.
// In paired plan-100f runs 4 pieces beat one bound over the whole range by
// ~6 % p50 and 16 pieces by ~1 %; 8 came within 1 % of 4.
const certPieces = 4

// noLevelPasses reports whether Eq. 1 fails at every slot of [s0, sf],
// given laxSf = lax(sf) exactly. The conflict term C never increases with
// the slot, so every s of a range [a, b] has lax(s) = deadline − s −
// remaining − C(s) ≤ deadline − a − remaining − C(b). The whole range is
// tried first, as lax(sf) + (sf − s0) costs nothing; then certPieces
// pieces, the last of which reuses C(sf) and each other one costs one
// conflicts query. A range shorter than certPieces yields one-slot pieces,
// whose bounds are exact.
func (e *engine) noLevelPasses(f *flow.Flow, tx *schedule.Tx, s0, sf, deadline, remaining, laxSf int) bool {
	if laxSf+(sf-s0) < 0 {
		return true
	}
	span, cSf := sf-s0+1, deadline-sf-remaining-laxSf
	for i := certPieces - 1; i >= 0; i-- {
		a, b := s0+i*span/certPieces, s0+(i+1)*span/certPieces-1
		if b < a {
			continue
		}
		c := cSf
		if b != sf {
			c = e.conflicts(f, tx, b, deadline)
		}
		if deadline-a-remaining-c >= 0 {
			return false
		}
	}
	return true
}

// placeRCCertified resolves a cold descent whose terminal free slot sf
// failed ρ=∞ and for which noLevelPasses proved that every candidate of
// [s0, sf] fails Eq. 1 too. The descent ends in its fallback, which
// placeRCFallback finds without the candidate table. Unlike that function's
// deadline-budget regime, the ledger here is the full descent's exactly:
// buildCands would have listed every endpoint-free slot of [s0, sf], and
// every level — ρ=∞ and nLevels finite ones — would have found a candidate
// (sf's free cell at least) and failed its laxity test.
func (e *engine) placeRCCertified(u, v, s0, sf, deadline, nLevels int) (int, int, bool) {
	examined, failed := e.mets.slotsExamined, e.mets.laxityFail
	slot, offset, ok := e.placeRCFallback(u, v, s0, deadline, nLevels)
	e.mets.slotsExamined = examined + int64(sf-s0+1-e.sched.BusyUnionCount(u, v, s0, sf))
	e.mets.laxityFail = failed + int64(nLevels) + 1
	e.candsValid = false // the cache still describes an earlier attempt
	return slot, offset, ok
}

// buildCands collects, once per RC placement attempt, every candidate slot
// the descending ρ search can ever choose: the endpoint-free slots from s0
// (the attempt's first such slot, located by the caller) up to and including
// the first one offering a free offset. Under least-loaded tie-breaking a
// free cell wins at every ρ, so no later slot is ever selected; when no slot
// has a free offset the cache extends to the deadline. Only the slot and its
// first free offset are recorded here — full slots resolve with one SlotFull
// bit test, and the occupancy rows and reuse distances are deferred to
// evalCands because a descent that passes at its first finite level over a
// free candidate never needs them.
func (e *engine) buildCands(u, v, s0, deadline int) {
	e.cands = e.cands[:0]
	e.candsEval = false
	e.candsU, e.candsV, e.candsDead = u, v, deadline
	e.candsPlaced, e.candsValid = -1, true
	e.candsVer = e.sched.Version()
	for s := s0; s >= 0; s = e.sched.NextSharedFreeSlot(u, v, s+1, deadline) {
		e.mets.slotsExamined++
		if e.sched.SlotFull(s) {
			e.cands = append(e.cands, slotCand{slot: int32(s), freeOff: -1})
			continue
		}
		e.cands = append(e.cands, slotCand{slot: int32(s), freeOff: int32(e.sched.FirstFreeOffset(s))})
		break
	}
}

// evalCands computes, once per RC placement attempt, each cached full
// candidate's cells' memoized minimum reuse-constraint distance and load,
// its best cell distance (maxDist), and the attempt-wide best (maxDistAll).
// A full slot occupies exactly offsets 0..M−1, so candidate i owns
// candDist/candLoad [i·M, i·M+M) by offset; a free terminal one gets the
// empty range at i·M. One pass serves every ρ level of the unmutated
// attempt, so the memo counters count each cell once here.
func (e *engine) evalCands(u, v int) {
	if e.candsEval {
		return
	}
	e.candsEval = true
	e.bindRows(u, v)
	m := e.sched.NumOffsets()
	n := len(e.cands) * m
	e.candDist, e.candLoad = slices.Grow(e.candDist[:0], n)[:n], slices.Grow(e.candLoad[:0], n)[:n]
	maxAll := int32(-1)
	for i := range e.cands {
		c := &e.cands[i]
		c.occLo, c.occHi = int32(i*m), int32(i*m)
		if c.freeOff < 0 {
			c.occHi += int32(m)
			c.maxDist = e.slotDists(u, v, int(c.slot), e.candDist[c.occLo:c.occHi], e.candLoad[c.occLo:c.occHi])
			maxAll = max(maxAll, c.maxDist)
		}
	}
	e.maxDistAll = maxAll
	e.mets.memoMisses += int64(e.cands[len(e.cands)-1].occHi) // nFull·M cells
}

// slotDists writes, for every offset off of the full slot s, the cell's
// minimum reuse-constraint distance to dists[off] and its load to
// loads[off], and returns the slot's best distance. A single-occupant cell
// — most of them — is read from the schedule's packed link column; a shared
// cell, or any cell when the column or the hoisted distance rows are
// absent, goes through Cell and cellMinDist.
func (e *engine) slotDists(u, v, s int, dists, loads []int32) int32 {
	links := e.sched.CellLinks(s)
	rowU, rowV := e.rowU, e.rowV
	if rowU == nil {
		links = nil
	}
	loads = loads[:len(dists)]
	maxDist := int32(-1)
	for off := range dists {
		var d, load int32
		if links != nil && links[off] != schedule.SharedCell {
			l := links[off]
			d, load = min(int32(rowU[l&0xffff]), int32(rowV[l>>16])), 1
		} else {
			e.cellBuf = e.sched.Cell(s, off, e.cellBuf[:0])
			d, load = e.cellMinDist(u, v, e.cellBuf), int32(len(e.cellBuf))
		}
		dists[off], loads[off] = d, load
		maxDist = max(maxDist, d)
	}
	return maxDist
}

// rcFind answers one finite-ρ level of the descent from the evaluated
// candidate cache (evalCands must have run), choosing exactly what findSlot
// would: the earliest candidate offering a free cell, or before that a
// least-loaded compatible occupied cell (ties on load to the lowest offset).
// It returns the candidate's index so placeRC can memoize per-slot laxity.
// A full slot resolves with integer compares: skip when maxDist < ρ (no cell
// can be compatible, since compatibility at ρ is exactly minDist ≥ ρ), else
// pick the least-loaded cell with minDist ≥ ρ.
func (e *engine) rcFind(rho int) (ci, offset int, ok bool) {
	for i := range e.cands {
		c := &e.cands[i]
		if c.freeOff >= 0 {
			return i, int(c.freeOff), true // least-loaded: an empty cell always wins
		}
		e.mets.memoHits += int64(c.occHi - c.occLo)
		if int(c.maxDist) < rho {
			continue
		}
		best, bestLoad := -1, int32(0)
		for k := c.occLo; k < c.occHi; k++ {
			if int(e.candDist[k]) < rho {
				continue
			}
			if best < 0 || e.candLoad[k] < bestLoad {
				best, bestLoad = int(k-c.occLo), e.candLoad[k]
			}
		}
		return i, best, true // maxDist ≥ ρ guarantees a compatible cell
	}
	return -1, 0, false
}

// cellMinDist is the memoized ingredient of the channel constraint: the
// minimum over the cell's occupants, given as positions in Txs, of
// min(d(u, y), d(x, v)) on G_R. The cell is compatible with (u→v) at hop
// distance ρ iff this is ≥ ρ. The fast path indexes the distance rows
// bindRows hoisted for the attempt's (u, v); when the matrix does not cover
// every schedule node the rows are nil and the bounds-checked Dist lookups
// (out-of-range ⇒ unreachable) apply.
func (e *engine) cellMinDist(u, v int, cell []int32) int32 {
	minDist := int32(1) << 30
	txs := e.sched.Txs()
	if rowU, rowV := e.rowU, e.rowV; rowU != nil {
		for _, p := range cell {
			other := &txs[p]
			if d := int32(rowU[other.Link.To]); d < minDist {
				minDist = d
			}
			if d := int32(rowV[other.Link.From]); d < minDist {
				minDist = d
			}
		}
		return minDist
	}
	for _, p := range cell {
		other := &txs[p]
		if d := int32(e.cfg.HopGR.Dist(u, other.Link.To)); d < minDist {
			minDist = d
		}
		if d := int32(e.cfg.HopGR.Dist(other.Link.From, v)); d < minDist {
			minDist = d
		}
	}
	return minDist
}

// placeRCRef is the reference formulation of Algorithm 1's inner loop, used
// under scanPaths: each ρ level re-runs a full findSlot/laxity pass through
// the pre-index reference implementations, with no cross-level caching.
func (e *engine) placeRCRef(f *flow.Flow, tx *schedule.Tx, earliest, deadline, remaining int) (int, int, bool) {
	rho := rhoInf
	fbSlot, fbOffset, fbOK, fbShared := 0, 0, false, false
	for {
		slot, offset, ok := e.findSlot(tx, earliest, deadline, rho)
		if ok {
			if e.laxity(f, tx, slot, deadline, remaining) >= 0 {
				e.mets.laxityPass++
				return slot, offset, true
			}
			e.mets.laxityFail++
			if !fbOK || slot < fbSlot {
				// Strictly earlier only: on a slot tie the earlier-tried
				// (higher-ρ) placement stands.
				fbSlot, fbOffset, fbOK, fbShared = slot, offset, true, e.placedShared
			}
		}
		if rho == rhoInf {
			if e.lambdaR < e.cfg.RhoT {
				break // reuse impossible on this G_R; keep the ρ=∞ result
			}
			if e.cfg.FixedRho {
				rho = e.cfg.RhoT // ablation: no hop-distance maximization
			} else {
				rho = e.lambdaR
			}
		} else {
			rho--
			if rho < e.cfg.RhoT {
				break
			}
		}
		e.mets.rhoSteps++
	}
	if fbOK {
		e.mets.laxityFallbacks++
		e.placedShared = fbShared
	}
	return fbSlot, fbOffset, fbOK
}

// laxity evaluates Eq. 1 for scheduling tx at slot s: the number of slots
// left before the deadline, minus the slots already known to conflict with
// each remaining transmission, minus the count of remaining transmissions.
// The conflict sum is served by the per-pair prefix-popcount handles bound
// in setFlow — O(1) per remaining transmission instead of a bitset scan.
func (e *engine) laxity(f *flow.Flow, tx *schedule.Tx, s, deadline, remaining int) int {
	if e.cfg.scanPaths {
		return e.laxityScan(f, tx, s, deadline, remaining)
	}
	lax := deadline - s - remaining
	if lax < 0 {
		return lax // cheap exit: conflict sum can only decrease it
	}
	// Remaining transmissions of the same hop share their conflict pair, so
	// each pair is queried once and weighted by its multiplicity: the current
	// hop's leftover attempts, then a full per-hop attempt count per later
	// hop.
	curCnt := e.hopAttempts(f, tx.Hop) - tx.Attempt - 1
	// Constant-time certificate first: a pair's busy-union count over any
	// range is at most the endpoints' total busy-slot counts, so slack ≥ the
	// memoized sum of those bounds proves the laxity non-negative without a
	// single prefix-index query. The returned magnitude is then a lower bound
	// on Eq. 1; every caller branches on the sign only.
	if !e.laxBoundOK {
		bound := 0
		if curCnt > 0 {
			bound = curCnt * (e.sched.NodeBusyCount(tx.Link.From) + e.sched.NodeBusyCount(tx.Link.To))
		}
		for h := tx.Hop + 1; h < len(f.Route); h++ {
			link := f.Route[h]
			bound += e.hopAttempts(f, h) * (e.sched.NodeBusyCount(link.From) + e.sched.NodeBusyCount(link.To))
		}
		e.laxBound, e.laxBoundOK = bound, true
	}
	if lax >= e.laxBound {
		return lax - e.laxBound
	}
	return lax - e.conflicts(f, tx, s, deadline)
}

// conflicts is Eq. 1's conflict term C(s): over the transmissions of the
// instance still to place after tx, the slots of (s, deadline] where the
// transmission's link has a busy endpoint, weighted by multiplicity. It is
// read from the per-pair prefix counts as UnionCount(s+1, deadline) per
// pair, split so the deadline term is paid once per attempt (laxDeadSum)
// rather than once per candidate slot. C never increases as s grows.
func (e *engine) conflicts(f *flow.Flow, tx *schedule.Tx, s, deadline int) int {
	curCnt := e.hopAttempts(f, tx.Hop) - tx.Attempt - 1
	if !e.laxDeadOK {
		if !e.instDOK {
			e.buildInstD(f, deadline)
		}
		sum := 0
		if curCnt > 0 {
			sum = curCnt * int(e.instD[tx.Hop])
		}
		for h := tx.Hop + 1; h < len(f.Route); h++ {
			sum += e.hopAttempts(f, h) * int(e.instD[h])
		}
		e.laxDeadSum, e.laxDeadOK = sum, true
	}
	conflictSum := e.laxDeadSum
	if curCnt > 0 {
		conflictSum -= curCnt * e.routePairs[tx.Hop].CountThrough(s)
	}
	for h := tx.Hop + 1; h < len(f.Route); h++ {
		conflictSum -= e.hopAttempts(f, h) * e.routePairs[h].CountThrough(s)
	}
	return conflictSum
}

// buildInstD snapshots the deadline term of Eq. 1 for the current instance:
// one CountThrough(deadline) per hop pair. bumpInstD keeps the snapshot
// exact across the instance's own placements, so later attempts reuse it
// without further prefix queries.
func (e *engine) buildInstD(f *flow.Flow, deadline int) {
	e.instD = e.instD[:0]
	for h := range f.Route {
		e.instD = append(e.instD, int32(e.routePairs[h].CountThrough(deadline)))
	}
	e.instDOK = true
}

// bumpInstD folds one committed placement into the instance's deadline-term
// snapshot. Placing at slot p busies exactly the placed link's two endpoints
// there, so a pair's busy-union count changes — by at most one, at slot p —
// only if the pair shares an endpoint with the placed link and the union bit
// at p was previously clear. The pre-placement union bit is reconstructible
// after the fact: the placed endpoints were necessarily free at p, and every
// other node's busy bit is untouched. Hops before the placed one are never
// queried again within the instance and are skipped.
func (e *engine) bumpInstD(f *flow.Flow, hop int, placed flow.Link, p int) {
	if !e.instDOK {
		return
	}
	a, b := placed.From, placed.To
	for h := hop; h < len(f.Route); h++ {
		x, y := f.Route[h].From, f.Route[h].To
		xIn := x == a || x == b
		yIn := y == a || y == b
		if !xIn && !yIn {
			continue
		}
		before := (!xIn && e.sched.NodeBusy(x, p)) || (!yIn && e.sched.NodeBusy(y, p))
		if !before {
			e.instD[h]++
		}
	}
}

// laxityScan is the pre-index reference implementation of laxity, summing
// BusyUnionCount word scans per remaining transmission.
func (e *engine) laxityScan(f *flow.Flow, tx *schedule.Tx, s, deadline, remaining int) int {
	lax := deadline - s - remaining
	if lax < 0 {
		return lax
	}
	conflictSum := 0
	for h := tx.Hop; h < len(f.Route); h++ {
		cnt := e.hopAttempts(f, h)
		if h == tx.Hop {
			cnt -= tx.Attempt + 1 // only the hop's leftover attempts remain
		}
		if cnt <= 0 {
			continue
		}
		link := f.Route[h]
		conflictSum += cnt * e.sched.BusyUnionCount(link.From, link.To, s+1, deadline)
	}
	return lax - conflictSum
}

// findSlot returns the earliest slot in [earliest, deadline] and a channel
// offset satisfying the channel-reuse constraints at hop distance rho
// (rhoInf = no reuse allowed). Offset tie-breaking encodes the policies:
// least-loaded for NR/RC (reduce channel contention), most-loaded for RA
// (aggressive packing).
//
// The index path resolves the offset choice from the occupancy bitset,
// exploiting two facts the reference scan rediscovers every call: under
// least-loaded tie-breaking an empty cell (load 0, earliest offset) beats
// every occupied one, and under most-loaded tie-breaking only occupied cells
// can win, with the first free offset as fallback. At ρ=∞ only a slot with a
// free cell can host at all, so the whole query fuses into one
// NextSharedNonFullSlot word scan over the endpoint-busy and slot-full
// bitsets — full-slot runs cost one popword, not one occupancy scan each
// (slotsExamined then counts the accepted slot only). Finite-ρ levels
// iterate via NextSharedFreeSlot, using the slot-full bit to skip the
// free-offset scan on saturated slots. The scan and index paths choose
// identical placements (see TestScanVsIndexIdentical).
func (e *engine) findSlot(tx *schedule.Tx, earliest, deadline int, rho int) (int, int, bool) {
	if e.cfg.scanPaths {
		return e.findSlotScan(tx, earliest, deadline, rho)
	}
	u, v := tx.Link.From, tx.Link.To
	if rho == rhoInf {
		s := e.sched.NextSharedNonFullSlot(u, v, earliest, deadline)
		if s < 0 {
			return 0, 0, false
		}
		e.mets.slotsExamined++
		e.placedShared = false
		return s, e.sched.FirstFreeOffset(s), true
	}
	preferLoaded := e.cfg.Algorithm == RA
	e.bindRows(u, v)
	for s := e.sched.NextSharedFreeSlot(u, v, earliest, deadline); s >= 0; s = e.sched.NextSharedFreeSlot(u, v, s+1, deadline) {
		e.mets.slotsExamined++
		full := e.sched.SlotFull(s)
		if !preferLoaded && !full {
			// least-loaded: an empty cell always wins
			e.placedShared = false
			return s, e.sched.FirstFreeOffset(s), true
		}
		e.occBuf = e.sched.OccupiedOffsets(s, e.occBuf[:0])
		best, bestLoad := -1, 0
		for _, c := range e.occBuf {
			e.cellBuf = e.sched.Cell(s, c, e.cellBuf[:0])
			if !e.reuseCompatible(u, v, e.cellBuf, rho) {
				continue
			}
			load := len(e.cellBuf)
			if best < 0 ||
				(preferLoaded && load > bestLoad) ||
				(!preferLoaded && load < bestLoad) {
				best, bestLoad = c, load
			}
		}
		if best >= 0 {
			e.placedShared = true
			return s, best, true
		}
		if preferLoaded && !full {
			// most-loaded: free offsets only as fallback
			e.placedShared = false
			return s, e.sched.FirstFreeOffset(s), true
		}
	}
	return 0, 0, false
}

// findSlotScan is the pre-index reference implementation of findSlot: walk
// every slot, check both endpoints' busy bits, scan every offset.
func (e *engine) findSlotScan(tx *schedule.Tx, earliest, deadline int, rho int) (int, int, bool) {
	if earliest < 0 {
		earliest = 0
	}
	if deadline >= e.sched.NumSlots() {
		deadline = e.sched.NumSlots() - 1
	}
	u, v := tx.Link.From, tx.Link.To
	preferLoaded := e.cfg.Algorithm == RA
	e.bindRows(u, v)
	for s := earliest; s <= deadline; s++ {
		if e.sched.NodeBusy(u, s) || e.sched.NodeBusy(v, s) {
			continue
		}
		e.mets.slotsExamined++
		best, bestLoad := -1, 0
		for c := 0; c < e.sched.NumOffsets(); c++ {
			e.cellBuf = e.sched.Cell(s, c, e.cellBuf[:0])
			if len(e.cellBuf) > 0 {
				if rho == rhoInf || !e.reuseCompatible(u, v, e.cellBuf, rho) {
					continue
				}
			}
			load := len(e.cellBuf)
			if best < 0 ||
				(preferLoaded && load > bestLoad) ||
				(!preferLoaded && load < bestLoad) {
				best, bestLoad = c, load
			}
		}
		if best >= 0 {
			e.placedShared = bestLoad > 0
			return s, best, true
		}
	}
	return 0, 0, false
}

// reuseCompatible applies channel constraint 2(b) of Sec. V-A: the new
// sender u must be ≥ rho hops from every scheduled receiver y, and every
// scheduled sender x must be ≥ rho hops from the new receiver v, on G_R.
// The cell's occupants are given as positions in Txs.
func (e *engine) reuseCompatible(u, v int, cell []int32, rho int) bool {
	// Callers bind the G_R rows of (u, v) first (see bindRows); the hoisted
	// rows replace two bounds-checked matrix lookups per occupant.
	txs := e.sched.Txs()
	if rowU, rowV := e.rowU, e.rowV; rowU != nil {
		for _, p := range cell {
			if other := &txs[p]; int(rowU[other.Link.To]) < rho || int(rowV[other.Link.From]) < rho {
				return false
			}
		}
		return true
	}
	for _, p := range cell {
		other := &txs[p]
		if int(e.cfg.HopGR.Dist(u, other.Link.To)) < rho ||
			int(e.cfg.HopGR.Dist(other.Link.From, v)) < rho {
			return false
		}
	}
	return true
}
