// The delta engine's op vocabulary: add, remove, and reroute, applied N per
// journal commit with one rollback point (the single-op entry points in
// delta.go are batches of one). A sustained-churn manager rarely sees deltas
// one at a time — a link fault reroutes every flow crossing it, an admission
// burst adds a batch of control loops — and applying them as one operation
// amortizes the per-op engine setup, disseminates one net diff, and keeps
// the all-or-nothing guarantee: if any mutation is infeasible even at the
// bottom of the repair ladder, the whole batch rolls back.

package scheduler

import (
	"fmt"

	"wsan/internal/flow"
	"wsan/internal/schedule"
)

// BatchKind selects one batched mutation.
type BatchKind int

const (
	// BatchAdd admits a new flow.
	BatchAdd BatchKind = iota
	// BatchRemove retires a flow.
	BatchRemove
	// BatchReroute moves a flow onto a new route and re-places it under
	// its current TxBudget, refitted by flow.AdaptBudget when the hop
	// count changes — so a re-budget is a same-route BatchReroute after
	// updating the flow's budget.
	BatchReroute
)

// String implements fmt.Stringer.
func (k BatchKind) String() string {
	switch k {
	case BatchAdd:
		return "add"
	case BatchRemove:
		return "remove"
	case BatchReroute:
		return "reroute"
	default:
		return fmt.Sprintf("BatchKind(%d)", int(k))
	}
}

// BatchOp is one mutation of a batch.
type BatchOp struct {
	Kind BatchKind
	// Flow is the flow to admit (BatchAdd only).
	Flow *flow.Flow
	// FlowID identifies the target flow (BatchRemove and BatchReroute).
	FlowID int
	// Route is the new route (BatchReroute only).
	Route []flow.Link
}

// BatchResult reports one atomic batch.
type BatchResult struct {
	DeltaResult
	// Flows is the post-batch workload in priority order. On failure it is
	// the unchanged input workload.
	Flows []*flow.Flow
	// Fallbacks is the deepest repair-ladder rung each op used, in op order
	// (meaningful only when the batch succeeded through that op).
	Fallbacks []Fallback
}

// ApplyDeltaBatch applies ops to a live schedule as one atomic operation:
// a single journal with a single rollback point, through the same engine as
// the single-op entry points. Each op descends the repair ladder on its own
// (direct → cascade → full reschedule); a full-rung repair rolls back only
// that op's mutations and rebuilds on top of the batch's earlier ops. If any
// op fails validation or is terminally infeasible the entire batch is rolled
// back. flows is the current workload in priority order; it is not mutated —
// the updated workload is returned in BatchResult.Flows (reroutes replace
// the flow with a copy carrying the new route, mirroring RerouteFlowDelta's
// caller-updates contract).
func ApplyDeltaBatch(sched *schedule.Schedule, flows []*flow.Flow, ops []BatchOp, cfg Config) (*BatchResult, error) {
	return applyDelta(sched, flows, ops, cfg, true)
}
