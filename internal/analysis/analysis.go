// Package analysis provides static analyses over flow sets and transmission
// schedules: end-to-end latency extraction, utilization accounting, and
// quick necessary conditions for schedulability. These complement the
// scheduler (which answers "is it schedulable?" constructively) with the
// explanatory metrics an operator dimensioning a network needs — and give
// the evaluation a latency view of what channel reuse buys beyond the binary
// schedulable ratio.
package analysis

import (
	"fmt"

	"wsan/internal/flow"
	"wsan/internal/schedule"
)

// FlowLatency summarizes the end-to-end latency of one flow across all of
// its releases in a schedule.
type FlowLatency struct {
	FlowID int
	// WorstSlots and BestSlots are the maximum and minimum latency over the
	// flow's instances, in slots from release to the last scheduled
	// transmission (inclusive).
	WorstSlots int
	BestSlots  int
	// MeanSlots is the mean over instances.
	MeanSlots float64
	// DeadlineSlots echoes the flow's relative deadline for slack
	// computation.
	DeadlineSlots int
}

// Slack returns the worst-case slack (deadline − worst latency) in slots.
func (l FlowLatency) Slack() int { return l.DeadlineSlots - l.WorstSlots }

// Latencies extracts per-flow end-to-end schedule latencies: for each flow
// instance, the span from its release slot to its final scheduled
// transmission. It requires the schedule to contain every instance of every
// flow (i.e., a schedulable result) and every period to be positive, and
// returns flows in the given order.
//
// The last slot of every (flow ID, instance) pair is kept in one dense
// table: each distinct flow ID owns a run of entries as long as the largest
// instance count among the flows carrying it, and −1 marks an instance with
// no transmission. Placement keeps a flow's transmissions together, so the
// ID's run is looked up only when the flow ID changes between consecutive
// transmissions.
func Latencies(flows []*flow.Flow, sched *schedule.Schedule) ([]FlowLatency, error) {
	if sched == nil {
		return nil, fmt.Errorf("analysis: nil schedule")
	}
	for _, f := range flows {
		if f.Period <= 0 {
			return nil, fmt.Errorf("analysis: flow %d: period %d must be positive", f.ID, f.Period)
		}
	}
	hyper := sched.NumSlots()
	type run struct{ base, size int }
	runs := make(map[int]run, len(flows))
	for _, f := range flows {
		r := runs[f.ID]
		r.size = max(r.size, hyper/f.Period)
		runs[f.ID] = r
	}
	size := 0
	for id, r := range runs {
		r.base = size
		size += r.size
		runs[id] = r
	}
	last := make([]int32, size)
	for i := range last {
		last[i] = -1
	}
	// An unlisted flow's run is the zero run, which holds no instance.
	var cur run
	curID := 0
	for i, tx := range sched.Txs() {
		if i == 0 || tx.FlowID != curID {
			curID = tx.FlowID
			cur = runs[curID]
		}
		// Slots fit in int32: schedule.New caps the grid at 2^31−1 cells.
		if uint(tx.Instance) < uint(cur.size) && int32(tx.Slot) > last[cur.base+tx.Instance] {
			last[cur.base+tx.Instance] = int32(tx.Slot)
		}
	}
	out := make([]FlowLatency, 0, len(flows))
	for _, f := range flows {
		instances := hyper / f.Period
		if instances == 0 {
			return nil, fmt.Errorf("analysis: flow %d period %d exceeds schedule length %d",
				f.ID, f.Period, hyper)
		}
		fl := FlowLatency{FlowID: f.ID, BestSlots: int(^uint(0) >> 1), DeadlineSlots: f.Deadline}
		total := 0
		for inst, s := range last[runs[f.ID].base:][:instances] {
			if s < 0 {
				return nil, fmt.Errorf("analysis: flow %d instance %d missing from schedule", f.ID, inst)
			}
			lat := int(s) - f.Release(inst) + 1
			total += lat
			if lat > fl.WorstSlots {
				fl.WorstSlots = lat
			}
			if lat < fl.BestSlots {
				fl.BestSlots = lat
			}
		}
		fl.MeanSlots = float64(total) / float64(instances)
		out = append(out, fl)
	}
	return out, nil
}

// Utilization describes how heavily a workload loads the network.
type Utilization struct {
	// Channel is the total transmission demand divided by the slot-channel
	// capacity: Σ (transmissions per hyperperiod) / (hyperperiod × |M|).
	// Above 1 the workload is trivially unschedulable without reuse.
	Channel float64
	// BottleneckNode is the busiest node's demand divided by the
	// hyperperiod: the fraction of all slots in which that node must be
	// awake. Above 1 the workload is unschedulable under ANY policy (the
	// radio is half-duplex), reuse or not.
	BottleneckNode float64
	// BottleneckID is the node realizing BottleneckNode.
	BottleneckID int
}

// ComputeUtilization accounts the demand of a routed flow set. attempts is
// the number of dedicated slots per hop (2 with retransmission); a flow with
// a per-hop TxBudget contributes its budgeted counts instead, as in
// DelayAnalysis.
func ComputeUtilization(flows []*flow.Flow, numChannels, attempts int) (Utilization, error) {
	if numChannels <= 0 || attempts <= 0 {
		return Utilization{}, fmt.Errorf("analysis: channels %d and attempts %d must be positive",
			numChannels, attempts)
	}
	hyper, err := flow.Hyperperiod(flows)
	if err != nil {
		return Utilization{}, fmt.Errorf("analysis: %w", err)
	}
	totalTx := 0
	nodeDemand := make(map[int]int)
	for _, f := range flows {
		if len(f.Route) == 0 {
			return Utilization{}, fmt.Errorf("analysis: flow %d has no route", f.ID)
		}
		if err := f.ValidateBudget(); err != nil {
			return Utilization{}, fmt.Errorf("analysis: %w", err)
		}
		instances := hyper / f.Period
		totalTx += instances * f.TotalAttempts(attempts)
		for h, l := range f.Route {
			nodeDemand[l.From] += instances * f.HopAttempts(h, attempts)
			nodeDemand[l.To] += instances * f.HopAttempts(h, attempts)
		}
	}
	u := Utilization{
		Channel: float64(totalTx) / float64(hyper*numChannels),
	}
	for id, d := range nodeDemand {
		share := float64(d) / float64(hyper)
		if share > u.BottleneckNode {
			u.BottleneckNode = share
			u.BottleneckID = id
		} else if share == u.BottleneckNode && id < u.BottleneckID {
			u.BottleneckID = id
		}
	}
	return u, nil
}
