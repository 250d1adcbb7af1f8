// Delta scheduling for flow churn and repair. Every live-schedule mutation
// runs through one journaled engine: ApplyDeltaBatch applies a list of add /
// remove / reroute / rebudget / repair / compact ops as one atomic operation,
// and every caller outside bench/ goes through it. AddFlowDelta,
// RemoveFlowDelta, and RerouteFlowDelta are batches of one that remain only
// for bench/churn.go's timed single ops.
//
// Each op pins every unaffected transmission and places only the delta
// against the existing grid. Placement runs through the same engine as a
// full run, so it is served by the index layer (busy-bitset word scans,
// occupancy rows, prefix-popcount conflict counters) and costs O(affected
// cells), not O(network).
//
// An op that places a flow first tries it directly against the pinned grid
// (FallbackNone). When that is infeasible it descends a two-rung repair
// ladder:
//
//  1. cascade — starting from the grid the failed direct attempt left,
//     evict strictly-lower-criticality flows colliding with the delta's
//     instance windows one at a time until it fits, then re-place the
//     evicted flows highest-criticality (lowest ID) first; a re-placement
//     that fails evicts its own lower-criticality colliders in turn, bounded
//     by cascadeBudget evictions in total. The rung is labelled
//     FallbackEvict when every eviction was made for the delta flow itself
//     and FallbackCascade when any was transitive;
//  2. full reschedule — roll the op back, rebuild the whole mutated workload
//     from scratch into a fresh grid of the same dimensions, and apply the
//     net difference (FallbackFull).
//
// Repair and compact ops never descend the ladder (see relocate.go).
//
// A call draws its per-op memory from deltaPool and returns it when done:
// the journal, the buffer a flow's removed transmissions pass through, the
// eviction ranking's scratch and the engine's RC candidate tables. An op
// therefore allocates its result and little else, and no field of a result
// aliases pooled memory. A removal takes a flow out whole with
// schedule.RemoveFlow, which leaves what a loop of Remove calls leaves, so
// the journal and every rollback replay are unchanged.
//
// The ladder keeps one rule: a rung never moves a flow the caller's workload
// does not list. The cascade rung evicts only listed flows, and the full
// rung is not taken when the rolled-back grid holds an unlisted flow (its
// rebuild would delete that flow's transmissions); the op is then
// infeasible. So an admission with an empty workload places the new flow
// against the pinned grid or not at all; wsan's Network.AddFlow is exactly
// that.
//
// The last rung is the from-scratch scheduler itself, so whenever the
// workload lists every scheduled flow and a full reschedule of the mutated
// workload is feasible, the op succeeds too — feasibility parity holds by
// construction. Every mutation is journaled; if any op is infeasible the
// journal is replayed in reverse and the schedule is left exactly as it was
// before the batch. The returned Changes is the net schedule.Diff actually
// applied; schedule.Invert(Changes) rolls it back.

package scheduler

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"wsan/internal/flow"
	"wsan/internal/obs"
	"wsan/internal/schedule"
)

// Fallback identifies how far down the repair ladder a delta operation had
// to descend.
type Fallback int

const (
	// FallbackNone: direct pinned placement succeeded.
	FallbackNone Fallback = iota
	// FallbackEvict: lower-criticality flows colliding with the delta were
	// evicted and re-placed around it, none of them transitively.
	FallbackEvict
	// FallbackCascade: re-placing an evicted flow evicted further
	// lower-criticality colliders, within cascadeBudget evictions in total.
	FallbackCascade
	// FallbackFull: the whole mutated workload was rescheduled from
	// scratch.
	FallbackFull
)

// String implements fmt.Stringer.
func (f Fallback) String() string {
	switch f {
	case FallbackNone:
		return "none"
	case FallbackEvict:
		return "evict"
	case FallbackCascade:
		return "cascade"
	case FallbackFull:
		return "full"
	default:
		return fmt.Sprintf("Fallback(%d)", int(f))
	}
}

// DeltaResult reports one incremental rescheduling operation.
type DeltaResult struct {
	// Changes is the net delta applied to the schedule, in canonical
	// dissemination order (see schedule.Diff). Apply schedule.Invert of it
	// to roll the operation back. Nil when the operation failed.
	Changes []schedule.Change
	// Schedulable reports whether the operation succeeded. When false the
	// schedule was restored to its pre-operation state.
	Schedulable bool
	// FailedFlow is the flow that could not be placed, or -1.
	FailedFlow int
	// Fallback is the deepest repair-ladder rung the operation ran.
	Fallback Fallback
	// Evicted lists, in priority order, the lower-criticality flows that
	// the cascade rung evicted and re-placed, across every op of a batch.
	Evicted []int
	// PlacementOps counts successful transmission placements performed,
	// including evicted-flow re-placements and full-reschedule replays.
	// This is the operation's disruption/work metric: single-flow churn
	// should stay near the flow's own transmission count, while a full
	// reschedule pays one placement per transmission in the network.
	PlacementOps int
	// RemovalOps counts transmission removals performed.
	RemovalOps int
	// Moved counts the transmissions repair and compact ops re-placed. A
	// repair victim re-placed into its own cell, left exclusive because its
	// cell-mate moved away first, counts too.
	Moved int
	// Unmovable lists, in victim order, the repair victims that found no
	// exclusive cell and stay in their shared cells.
	Unmovable []schedule.Tx
	// Elapsed is the wall-clock operation time.
	Elapsed time.Duration
}

// AddFlowDelta admits flow f into a live schedule holding flows, descending
// the repair ladder on infeasibility. f may have any priority (ID) — an
// admission that preempts lower-criticality flows is resolved by eviction or
// full reschedule rather than rejected. flows is the scheduled workload in
// priority order; it is not mutated. Only the flows it lists may move, so
// with an empty workload f is placed against the pinned grid or the op is
// infeasible.
func AddFlowDelta(sched *schedule.Schedule, flows []*flow.Flow, f *flow.Flow, cfg Config) (*DeltaResult, error) {
	return applyOne(sched, flows, BatchOp{Kind: BatchAdd, Flow: f}, cfg)
}

// RemoveFlowDelta retires a flow from a live schedule, removing its
// transmissions. Removal frees capacity, so it always succeeds; the result's
// Changes is the pure-removal delta to disseminate. mets may be nil.
func RemoveFlowDelta(sched *schedule.Schedule, flowID int, mets obs.Sink) (*DeltaResult, error) {
	return applyOne(sched, nil, BatchOp{Kind: BatchRemove, FlowID: flowID}, Config{Metrics: mets})
}

// RerouteFlowDelta moves flow flowID onto newRoute, re-placing only that
// flow's transmissions and descending the repair ladder on infeasibility.
// The flow's TxBudget rides along, refitted to the new route by
// flow.AdaptBudget, so a re-budgeted (or shed) flow keeps its concession
// through a detour of any length. flows must be the currently scheduled
// workload in priority order and contain the flow; neither it nor the flow
// is mutated — on success the caller records the move with flow.SetRoute.
func RerouteFlowDelta(sched *schedule.Schedule, flows []*flow.Flow, flowID int, newRoute []flow.Link, cfg Config) (*DeltaResult, error) {
	return applyOne(sched, flows, BatchOp{Kind: BatchReroute, FlowID: flowID, Route: newRoute}, cfg)
}

// applyOne runs op as a batch of one without tracking the workload.
func applyOne(sched *schedule.Schedule, flows []*flow.Flow, op BatchOp, cfg Config) (*DeltaResult, error) {
	res, err := applyDelta(sched, flows, []BatchOp{op}, cfg, false)
	if err != nil {
		return nil, err
	}
	return &res.DeltaResult, nil
}

// applyDelta is the engine behind every delta entry point: it runs ops in
// order against one journal and flushes one set of metrics. One op reports
// under its kind's label; more than one report under "batch" and tag errors
// with the failing op's index. With track set the post-batch workload and
// the per-op fallbacks are returned; without it (the single-op entry points)
// the caller's workload is read in place and that bookkeeping is skipped.
// On a validation error or terminal infeasibility the whole journal is
// rolled back.
func applyDelta(sched *schedule.Schedule, flows []*flow.Flow, ops []BatchOp, cfg Config, track bool) (*BatchResult, error) {
	start := time.Now()
	if sched == nil {
		return nil, fmt.Errorf("scheduler: nil schedule")
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("scheduler: empty delta batch")
	}
	// Only adds, reroutes and rebudgets place a flow; an operation without
	// any needs no placement config (RemoveFlowDelta has none).
	for _, op := range ops {
		if op.Kind == BatchAdd || op.Kind == BatchReroute || op.Kind == BatchRebudget {
			if err := validateDeltaConfig(sched, cfg); err != nil {
				return nil, err
			}
			break
		}
	}
	work := flows
	if track {
		work = slices.Clone(flows)
	}
	d := newDeltaOp(sched, cfg, work)
	defer d.release()
	out := &BatchResult{DeltaResult: DeltaResult{FailedFlow: -1}, Flows: flows}
	for i, op := range ops {
		mark := len(d.ops)
		f, err := d.begin(op)
		fb, failed := FallbackNone, -1
		if err == nil && f != nil {
			fb, failed, err = d.place(f, mark)
		}
		if err != nil {
			d.rollbackTo(0)
			if len(ops) > 1 {
				err = fmt.Errorf("%w (batch op %d)", err, i)
			}
			return nil, err
		}
		out.Fallback = max(out.Fallback, fb)
		if failed >= 0 {
			d.rollbackTo(0)
			out.FailedFlow = failed
			break
		}
		if track {
			out.Fallbacks = append(out.Fallbacks, fb)
			if f != nil {
				d.work = setFlow(d.work, f.ID, f)
			} else if op.Kind == BatchRemove {
				d.work = setFlow(d.work, op.FlowID, nil)
			}
		}
	}
	if out.FailedFlow < 0 {
		d.finish(&out.DeltaResult)
		out.Flows = d.work
	}
	out.Elapsed = time.Since(start)
	flushDeltaMetrics(cfg.Metrics, ops, &out.DeltaResult)
	if cfg.Metrics != nil {
		d.eng.flushIndexMetrics(cfg.Metrics)
	}
	return out, nil
}

// deltaOp carries one operation's state: the live schedule, a placement
// engine bound to it, the workload as of the current op, and the mutation
// journal, each placement an Added change and each removal a Removed one,
// so the op can be rolled back (reverse replay) and its net diff computed.
// deltaOps are recycled through deltaPool, so their buffers outlive
// the call that filled them: nothing a result returns may alias them.
type deltaOp struct {
	sched *schedule.Schedule
	cfg   Config
	eng   engine
	// work is the workload in priority order before the current op. An
	// untracked single op reads the caller's slice; a tracked call owns a
	// copy it updates after each op and returns as BatchResult.Flows.
	work []*flow.Flow
	ops  []schedule.Change

	// evicted accumulates the cascade rung's evictions across ops.
	evicted []int
	// moved and unmovable accumulate repair and compact outcomes.
	moved     int
	unmovable []schedule.Tx
	// replays counts full-rung placements into scratch grids, which the
	// journal does not see.
	replays int

	// Scratch: removeFlow's output before it is journaled, finish's sort
	// keys, the eviction ranking's route marks (indexed by node) and its
	// bounded candidate list, and the cascade's pending re-placements.
	txBuf   []schedule.Tx
	keys    []uint64
	onRoute []bool
	cands   []evictCand
	pending []*flow.Flow
}

// deltaPool recycles deltaOps across applyDelta calls, as scratchPool
// recycles full-rung grids: the journal, the transmission buffer, the
// ranking's scratch and the engine's RC candidate tables, per-hop handles
// and attempt counts are allocated once per P instead of once per op.
var deltaPool = sync.Pool{New: func() any { return new(deltaOp) }}

// Caps on the buffers a released deltaOp keeps. A full rung journals the
// net diff of the whole grid; pooling journals of that size would hold
// grid-sized memory per P for the rare op that needs it, so a larger buffer
// is dropped and such an op allocates its own. On the 500-flow churn grid
// fewer than one op in four thousand journals more than 2048 entries. The
// sort keys take two words per journal entry (schedule.NetJournal).
const (
	maxPooledJournal = 1 << 11
	maxPooledTxs     = 1 << 8
)

// newDeltaOp takes a deltaOp from deltaPool bound to sched, cfg and work.
// The caller releases it once the result is filled.
func newDeltaOp(sched *schedule.Schedule, cfg Config, work []*flow.Flow) *deltaOp {
	lambdaR := 0
	if cfg.Algorithm == RC {
		lambdaR = cfg.HopGR.Diameter()
	}
	d := deltaPool.Get().(*deltaOp)
	d.sched, d.cfg, d.work = sched, cfg, work
	d.eng.recycle(cfg, sched, lambdaR)
	return d
}

// release returns d to deltaPool. It drops every pointer into a grid, a
// workload or a config, so the pool retains none of them, and every buffer
// grown past its cap. The result owns unmovable, which is not reused.
func (d *deltaOp) release() {
	d.eng.recycle(Config{}, nil, 0)
	clear(d.cands[:cap(d.cands)])
	clear(d.pending[:cap(d.pending)])
	*d = deltaOp{eng: d.eng, ops: keepBuf(d.ops, maxPooledJournal), txBuf: keepBuf(d.txBuf, maxPooledTxs),
		keys: keepBuf(d.keys, 2*maxPooledJournal), evicted: d.evicted[:0], onRoute: d.onRoute, cands: d.cands[:0], pending: d.pending[:0]}
	deltaPool.Put(d)
}

// keepBuf returns buf emptied for reuse, or nil when its capacity exceeds
// limit.
func keepBuf[T any](buf []T, limit int) []T {
	if cap(buf) > limit {
		return nil
	}
	return buf[:0]
}

// begin validates op against the grid and the workload and performs its
// removal half — all of a removal, repair, or compaction. It returns the
// flow the op must place: the new flow of an add, an updated copy for a
// reroute or rebudget, nil otherwise.
func (d *deltaOp) begin(op BatchOp) (*flow.Flow, error) {
	switch op.Kind {
	case BatchAdd:
		f := op.Flow
		if f == nil {
			return nil, fmt.Errorf("scheduler: add without a flow")
		}
		if err := validateDeltaFlow(d.sched, f); err != nil {
			return nil, err
		}
		if findFlow(d.work, f.ID) >= 0 {
			return nil, fmt.Errorf("scheduler: flow %d already in the workload", f.ID)
		}
		if len(d.sched.FlowTxs(f.ID, nil)) > 0 {
			return nil, fmt.Errorf("scheduler: flow %d already scheduled", f.ID)
		}
		return f, nil
	case BatchRemove:
		if d.removeFlow(op.FlowID) == 0 {
			return nil, fmt.Errorf("scheduler: flow %d has no scheduled transmissions", op.FlowID)
		}
		return nil, nil
	case BatchReroute, BatchRebudget:
		i := findFlow(d.work, op.FlowID)
		if i < 0 {
			return nil, fmt.Errorf("scheduler: flow %d not in the workload", op.FlowID)
		}
		moved := *d.work[i]
		if op.Kind == BatchReroute {
			moved.SetRoute(op.Route)
		} else {
			moved.TxBudget = slices.Clone(op.Budget)
		}
		if err := validateDeltaFlow(d.sched, &moved); err != nil {
			return nil, err
		}
		d.removeFlow(op.FlowID)
		return &moved, nil
	case BatchRepair:
		return nil, d.repair(op.Links)
	case BatchCompact:
		return nil, d.compact()
	default:
		return nil, fmt.Errorf("scheduler: unknown op kind %v", op.Kind)
	}
}

// place runs the repair ladder for f against the grid, whose workload is
// d.work with f added (or replacing its same-ID entry, for a reroute or
// rebudget). mark is the journal length at the op's start, before any of its
// mutations — the removal of the flow's old transmissions included. Only the
// full rung rolls back to it, so it rebuilds from the pre-op grid; the
// cascade rung continues from whatever the failed direct attempt left, which
// placeFlow has already cleaned up. Returns the deepest rung run and, when the op is infeasible,
// the flow it could not place (-1 on success).
func (d *deltaOp) place(f *flow.Flow, mark int) (Fallback, int, error) {
	if ok, err := d.placeFlow(f); ok || err != nil {
		return FallbackNone, -1, err
	}
	fb, ok, err := d.evictCascade(f)
	if ok || err != nil {
		return fb, -1, err
	}
	d.rollbackTo(mark)
	mutated := withFlow(d.work, f)
	if !d.covers(mutated) {
		return fb, f.ID, nil
	}
	return d.fullReschedule(mutated)
}

// covers reports whether work lists every flow the grid holds, the full
// rung's precondition: the rung rebuilds only the listed flows, so applying
// its diff would delete every other flow's transmissions.
func (d *deltaOp) covers(work []*flow.Flow) bool {
	listed := flowsByID(work)
	for _, tx := range d.sched.Txs() {
		if _, ok := listed[tx.FlowID]; !ok {
			return false
		}
	}
	return true
}

// placeFlow places every instance of f against the current grid (everything
// already placed is pinned — the engine never moves an existing
// transmission), journaling the placements. On a deadline miss the partial
// placements are undone and false is returned; so they are on an engine
// error, which is returned with it.
func (d *deltaOp) placeFlow(f *flow.Flow) (bool, error) {
	base := d.sched.Len()
	hyper := d.sched.NumSlots()
	for inst := 0; inst < hyper/f.Period; inst++ {
		if ok, err := d.eng.scheduleInstance(f, inst); !ok {
			// f held nothing before this call, so its transmissions are
			// exactly the tail Txs()[base:], and removing them whole leaves
			// the list as it was.
			d.txBuf = d.sched.RemoveFlow(f.ID, d.txBuf[:0])
			return false, err
		}
	}
	placed := d.sched.Txs()[base:]
	d.ops = slices.Grow(d.ops, len(placed))
	for _, tx := range placed {
		d.ops = append(d.ops, schedule.Change{Kind: schedule.Added, Tx: tx})
	}
	return true, nil
}

// removeFlow removes every scheduled transmission of flowID, journaled in
// the order a loop of Remove over FlowTxs would remove them, so a rollback
// re-places them exactly as before. Returns how many were removed.
func (d *deltaOp) removeFlow(flowID int) int {
	d.txBuf = d.sched.RemoveFlow(flowID, d.txBuf[:0])
	d.ops = slices.Grow(d.ops, len(d.txBuf))
	for _, tx := range d.txBuf {
		d.ops = append(d.ops, schedule.Change{Kind: schedule.Removed, Tx: tx})
	}
	return len(d.txBuf)
}

// rollbackTo replays the journal suffix past mark in reverse, restoring the
// schedule to its state when the journal held mark entries.
func (d *deltaOp) rollbackTo(mark int) {
	for i := len(d.ops) - 1; i >= mark; i-- {
		if e := &d.ops[i]; e.Kind == schedule.Added {
			_ = d.sched.Remove(e.Tx)
		} else {
			_ = d.sched.Place(e.Tx)
		}
	}
	d.ops = d.ops[:mark]
}

// finish fills a successful result from the journal: the net diff — a
// transmission removed and later re-placed in the same cell cancels out, so
// it is exactly what the manager must disseminate — netted by
// schedule.NetJournal through the pooled key buffer, and the work counters.
// Work an inner rollback undid is not counted.
func (d *deltaOp) finish(res *DeltaResult) {
	res.PlacementOps = d.replays
	for i := range d.ops {
		if d.ops[i].Kind == schedule.Added {
			res.PlacementOps++
		} else {
			res.RemovalOps++
		}
	}
	res.Changes, d.keys = schedule.NetJournal(d.ops, d.keys)
	if len(d.evicted) > 0 {
		slices.Sort(d.evicted)
		res.Evicted = slices.Clone(slices.Compact(d.evicted))
	}
	res.Moved, res.Unmovable = d.moved, d.unmovable
	res.Schedulable = true
}

// validateDeltaConfig checks the parts of cfg a delta operation relies on
// against the live schedule.
func validateDeltaConfig(sched *schedule.Schedule, cfg Config) error {
	if sched == nil {
		return fmt.Errorf("scheduler: nil schedule")
	}
	if cfg.NumChannels != sched.NumOffsets() {
		return fmt.Errorf("scheduler: config has %d channels but schedule has %d offsets",
			cfg.NumChannels, sched.NumOffsets())
	}
	return cfg.validateAlgorithm()
}

// validateDeltaFlow checks that f can live inside sched's grid: valid on its
// own, routed, harmonic with the slotframe, and within the node space.
func validateDeltaFlow(sched *schedule.Schedule, f *flow.Flow) error {
	if err := validateRouted(f); err != nil {
		return err
	}
	if sched.NumSlots()%f.Period != 0 {
		return fmt.Errorf("scheduler: flow period %d does not divide the slotframe %d",
			f.Period, sched.NumSlots())
	}
	for _, l := range f.Route {
		if l.From >= sched.NumNodes() || l.To >= sched.NumNodes() {
			return fmt.Errorf("scheduler: flow %d route node outside schedule's node space", f.ID)
		}
	}
	return nil
}

// findFlow returns the index of flow id in work, or -1.
func findFlow(work []*flow.Flow, id int) int {
	for i, g := range work {
		if g.ID == id {
			return i
		}
	}
	return -1
}

// withFlow returns a copy of the priority-ordered workload with f in it,
// replacing any flow with f's ID.
func withFlow(work []*flow.Flow, f *flow.Flow) []*flow.Flow {
	return setFlow(append(make([]*flow.Flow, 0, len(work)+1), work...), f.ID, f)
}

// setFlow updates the priority-ordered workload in place: flow id is
// replaced by f, or removed when f is nil; an f not yet present is inserted
// at its priority position.
func setFlow(work []*flow.Flow, id int, f *flow.Flow) []*flow.Flow {
	i := findFlow(work, id)
	switch {
	case f == nil && i >= 0:
		return slices.Delete(work, i, i+1)
	case f == nil:
		return work
	case i >= 0:
		work[i] = f
		return work
	}
	i = sort.Search(len(work), func(k int) bool { return work[k].ID > f.ID })
	return slices.Insert(work, i, f)
}

// evictCand is one eviction candidate: a listed lower-criticality flow with
// transmissions inside the new flow's instance windows, scored by how hard
// those transmissions block the placement (route-touching transmissions
// weigh most).
type evictCand struct {
	f     *flow.Flow
	score int
}

// ranksBefore reports whether c ranks before o: a higher score — more
// blocking transmissions — first, ties to the lower-criticality (higher ID)
// flow. The key is unique in a workload of distinct IDs.
func (c evictCand) ranksBefore(o evictCand) bool {
	return c.score > o.score || c.score == o.score && c.f.ID > o.f.ID
}

// evictionCandidates ranks the evictable flows — listed in the workload (an
// unknown flow cannot be re-placed), of lower criticality (higher ID) than
// g, with a transmission inside one of g's release/deadline windows — and
// returns the first k of the ranking, all a cascade with k evictions left
// can consume. It reads each listed flow's slots and links in place through
// the per-flow index and keeps only the k best so far, in rank order. The
// result is d's scratch, valid until the next call.
func (d *deltaOp) evictionCandidates(g *flow.Flow, k int) []evictCand {
	if k <= 0 {
		return nil
	}
	if n := d.sched.NumNodes(); len(d.onRoute) < n {
		d.onRoute = make([]bool, n)
	}
	onRoute := d.onRoute
	for _, l := range g.Route {
		onRoute[l.From], onRoute[l.To] = true, true
	}
	lower := d.work[sort.Search(len(d.work), func(i int) bool { return d.work[i].ID > g.ID }):]
	cands := d.cands[:0]
	for _, h := range lower {
		s := 0
		d.sched.EachFlowSlotLink(h.ID, func(slot int, l flow.Link) {
			rel := slot - g.Phase
			if rel < 0 || rel%g.Period >= g.Deadline {
				return // outside every instance window of g
			}
			s++
			if onRoute[l.From] || onRoute[l.To] {
				s += 8
			}
		})
		c := evictCand{f: h, score: s}
		if s == 0 || len(cands) == k && !c.ranksBefore(cands[k-1]) {
			continue
		}
		i := len(cands)
		if i < k {
			cands = append(cands, c)
		} else {
			i-- // c displaces the k-th
		}
		for ; i > 0 && c.ranksBefore(cands[i-1]); i-- {
			cands[i] = cands[i-1]
		}
		cands[i] = c
	}
	for _, l := range g.Route {
		onRoute[l.From], onRoute[l.To] = false, false
	}
	d.cands = cands
	return cands
}

// cascadeBudget bounds the total number of evictions one cascade descent may
// perform. The bound is what keeps the rung cheaper than a full reschedule:
// each eviction costs one removal plus one bounded re-placement attempt, so
// the rung's work stays O(budget · flow), independent of network size.
const cascadeBudget = 16

// evictCascade is the middle rung, entered after f's direct placement
// failed. It evicts f's colliders one at a time (most blocking first),
// retrying f after each, so the eviction set grows greedily and stays
// near-minimal. The evicted flows are then re-placed highest-criticality
// (lowest ID) first; a re-placement that fails evicts its own colliders the
// same way. Every evicted flow has a strictly higher ID than the flow it was
// evicted for, so transitively no eviction ever outranks f. Termination:
// each iteration either places a pending flow or consumes budget. Returns
// FallbackCascade when any eviction was transitive, FallbackEvict otherwise;
// ok=false leaves the journal for the caller to roll back, as does an engine
// error. A workload out of strictly ascending ID order is an error: a
// duplicated flow would be ranked, evicted and re-placed twice.
func (d *deltaOp) evictCascade(f *flow.Flow) (fb Fallback, ok bool, err error) {
	fb = FallbackEvict
	for i := 1; i < len(d.work); i++ {
		if d.work[i].ID <= d.work[i-1].ID {
			return fb, false, fmt.Errorf("scheduler: workload flow at position %d has ID %d after ID %d (priority order broken)",
				i, d.work[i].ID, d.work[i-1].ID)
		}
	}
	budget := cascadeBudget
	d.pending = d.pending[:0]
	evictedBefore := len(d.evicted)
	for g := f; g != nil; g = popHighest(&d.pending) {
		if g != f {
			if ok, err = d.placeFlow(g); err != nil {
				return fb, false, err
			} else if ok {
				continue
			}
			fb = FallbackCascade
		}
		placed := false
		for _, c := range d.evictionCandidates(g, budget) {
			budget--
			d.removeFlow(c.f.ID)
			d.evicted = append(d.evicted, c.f.ID)
			d.pending = append(d.pending, c.f)
			if placed, err = d.placeFlow(g); placed || err != nil {
				break
			}
		}
		if !placed {
			d.evicted = d.evicted[:evictedBefore]
			return fb, false, err
		}
	}
	return fb, true, nil
}

// popHighest removes and returns the highest-criticality (lowest ID) flow of
// pending, or nil when it is empty.
func popHighest(pending *[]*flow.Flow) *flow.Flow {
	if len(*pending) == 0 {
		return nil
	}
	g := slices.MinFunc(*pending, func(a, b *flow.Flow) int { return cmp.Compare(a.ID, b.ID) })
	*pending = slices.DeleteFunc(*pending, func(h *flow.Flow) bool { return h == g })
	return g
}

// scratchPool recycles full-reschedule scratch grids across delta
// operations. The full rung used to allocate a fresh grid per descent — the
// delta path's single largest allocation under sustained churn; recycling
// one scratch per P (GOMAXPROCS) keeps steady-state soak runs
// allocation-flat.
var scratchPool sync.Pool

// fullReschedule is the ladder's last rung: run the configured algorithm
// over the whole mutated workload into a scratch grid of the same dimensions
// (the existing slotframe is kept — every period divides it, so instance
// windows repeat exactly), then apply the net difference to the live
// schedule. Because this rung is the from-scratch scheduler itself,
// feasibility parity with a full reschedule holds by construction. The
// caller must have rolled the journal back to this op's starting point
// first; the applied net is journaled so a batch can keep building on top of
// a full-rung repair and still roll the whole batch back. Returns the flow
// the scratch run could not place, or -1.
func (d *deltaOp) fullReschedule(mutated []*flow.Flow) (Fallback, int, error) {
	fresh, _ := scratchPool.Get().(*schedule.Schedule)
	var err error
	if fresh != nil {
		err = fresh.Reset(d.sched.NumSlots(), d.sched.NumOffsets(), d.sched.NumNodes())
	} else {
		fresh, err = schedule.New(d.sched.NumSlots(), d.sched.NumOffsets(), d.sched.NumNodes())
	}
	if err != nil {
		return FallbackFull, -1, fmt.Errorf("scheduler: full reschedule: %w", err)
	}
	defer scratchPool.Put(fresh)
	hyper := d.sched.NumSlots()
	total := 0
	for _, g := range mutated {
		total += (hyper / g.Period) * g.TotalAttempts(d.cfg.attempts())
	}
	fresh.Reserve(total)
	eng := newEngine(d.cfg, fresh, d.eng.lambdaR)
	for _, g := range mutated {
		for inst := 0; inst < hyper/g.Period; inst++ {
			if ok, err := eng.scheduleInstance(g, inst); err != nil {
				return FallbackFull, -1, fmt.Errorf("scheduler: full reschedule: %w", err)
			} else if !ok {
				return FallbackFull, g.ID, nil
			}
		}
	}
	changes, err := schedule.Diff(d.sched, fresh)
	if err != nil {
		return FallbackFull, -1, fmt.Errorf("scheduler: full reschedule: %w", err)
	}
	if err := schedule.Apply(d.sched, changes); err != nil {
		return FallbackFull, -1, fmt.Errorf("scheduler: full reschedule: %w", err)
	}
	// Journal in Apply's execution order (the canonical order puts removals
	// before additions) so a reverse replay undoes the rung cleanly.
	d.ops = append(d.ops, changes...)
	d.replays += fresh.Len()
	return FallbackFull, -1, nil
}

// flushDeltaMetrics pushes one operation's counters under the
// "sched.incremental." prefix. No-op without a sink. applyDelta adds the
// op engine's "sched.index." work counters on the live grid (a full
// reschedule's fresh grid is not counted).
func flushDeltaMetrics(m obs.Sink, ops []BatchOp, res *DeltaResult) {
	if m == nil {
		return
	}
	const p = "sched.incremental."
	m.Count(p+"ops", 1)
	m.Count(opsMetric(ops), 1)
	m.Count(p+"placements", int64(res.PlacementOps))
	m.Count(p+"removals", int64(res.RemovalOps))
	m.Count(p+"evictions", int64(len(res.Evicted)))
	m.Count(p+"delta_changes", int64(len(res.Changes)))
	switch res.Fallback {
	case FallbackEvict:
		m.Count(p+"fallback_evict", 1)
	case FallbackCascade:
		m.Count(p+"fallback_cascade", 1)
	case FallbackFull:
		m.Count(p+"fallback_full", 1)
	}
	if !res.Schedulable {
		m.Count(p+"infeasible", 1)
	}
	m.Observe(p+"elapsed_seconds", res.Elapsed.Seconds())
}

// opsMetric names the per-kind op counter a call reports under: one op
// counts under its kind, more than one under "batch". The names are
// constants so that a flush builds no string.
func opsMetric(ops []BatchOp) string {
	if len(ops) > 1 {
		return "sched.incremental.batch_ops"
	}
	switch k := ops[0].Kind; k {
	case BatchAdd:
		return "sched.incremental.add_ops"
	case BatchRemove:
		return "sched.incremental.remove_ops"
	case BatchReroute:
		return "sched.incremental.reroute_ops"
	case BatchRepair:
		return "sched.incremental.repair_ops"
	case BatchCompact:
		return "sched.incremental.compact_ops"
	case BatchRebudget:
		return "sched.incremental.rebudget_ops"
	default:
		return "sched.incremental." + k.String() + "_ops"
	}
}
