// Package repair closes the loop the paper's Sec. VI opens: once the
// detection policy identifies links whose reliability channel reuse has
// degraded, "these links can be reassigned to different channels or time
// slots". The paper stops at detection; this package is the reassignment's
// entry point from detection output.
//
// Repair and compaction are ops of the scheduler's delta engine
// (scheduler.BatchRepair and scheduler.BatchCompact): every other
// transmission is pinned, the moves are journaled, and an error leaves the
// schedule untouched — an incremental update the network manager can
// disseminate as a delta, not a full reschedule.
package repair

import (
	"wsan/internal/detect"
	"wsan/internal/flow"
	"wsan/internal/obs"
	"wsan/internal/schedule"
	"wsan/internal/scheduler"
)

// Result reports what a repair pass did.
type Result struct {
	// DegradedLinks is the number of distinct links needing repair.
	DegradedLinks int
	// Moved is the number of transmissions re-placed into exclusive cells.
	Moved int
	// Failed lists transmissions that could not be moved (no feasible
	// exclusive cell); they remain in their original shared cells.
	Failed []schedule.Tx
}

// Reschedule moves every transmission of the given degraded links out of
// shared cells, mutating sched in place. flows must be the scheduled flow
// set (for release/deadline windows and route ordering).
func Reschedule(sched *schedule.Schedule, flows []*flow.Flow, degraded []flow.Link) (*Result, error) {
	return RescheduleObserved(sched, flows, degraded, nil)
}

// RescheduleObserved is Reschedule with an observability sink: repair
// counters (victims, moves, failures) are flushed under the "repair."
// prefix, next to the delta engine's "sched.incremental." counters. A nil
// sink makes it identical to Reschedule.
func RescheduleObserved(sched *schedule.Schedule, flows []*flow.Flow, degraded []flow.Link, m obs.Sink) (*Result, error) {
	d, err := scheduler.ApplyDeltaBatch(sched, flows,
		[]scheduler.BatchOp{{Kind: scheduler.BatchRepair, Links: degraded}}, scheduler.Config{Metrics: m})
	if err != nil {
		return nil, err
	}
	res := &Result{DegradedLinks: len(degraded), Moved: d.Moved, Failed: d.Unmovable}
	if m != nil {
		m.Count("repair.runs", 1)
		m.Count("repair.degraded_links", int64(res.DegradedLinks))
		m.Count("repair.victims", int64(res.Moved+len(res.Failed)))
		m.Count("repair.moved", int64(res.Moved))
		m.Count("repair.unmovable", int64(len(res.Failed)))
	}
	return res, nil
}

// RescheduleFromReports is the convenience entry point from detection
// output: it repairs every link any report marks reuse-degraded.
func RescheduleFromReports(sched *schedule.Schedule, flows []*flow.Flow, reports []detect.Report) (*Result, error) {
	return Reschedule(sched, flows, detect.Links(reports, detect.ReuseDegraded))
}

// Compact shifts transmissions toward earlier slots without violating any
// constraint: transmission conflicts, release times, and per-instance route
// order all hold afterwards. Repairs and incremental admissions leave
// schedules with late placements; compaction recovers the latency the
// fixed-priority scheduler would have achieved. Moves target exclusive cells
// only, so compaction never creates channel sharing the scheduler avoided,
// and a fresh earliest-slot schedule is a fixed point. It returns the number
// of transmissions moved.
func Compact(sched *schedule.Schedule, flows []*flow.Flow) (int, error) {
	d, err := scheduler.ApplyDeltaBatch(sched, flows, []scheduler.BatchOp{{Kind: scheduler.BatchCompact}}, scheduler.Config{})
	if err != nil {
		return 0, err
	}
	return d.Moved, nil
}
