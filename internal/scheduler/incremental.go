package scheduler

import (
	"fmt"
	"time"

	"wsan/internal/flow"
	"wsan/internal/schedule"
)

// AddFlow admits one new flow into an existing schedule without touching the
// already-scheduled transmissions — the incremental update a WirelessHART
// network manager performs when a device or control loop joins a running
// network. The new flow is treated as the lowest-priority flow (its ID must
// be larger than every scheduled flow's), so existing guarantees are
// preserved by construction.
//
// The new flow's period must divide the schedule length (harmonic with the
// existing hyperperiod); otherwise the slotframe would have to grow, which
// is a full reschedule, not an incremental add.
//
// On success the schedule is mutated and the result reports the placement;
// on a deadline miss the schedule is left exactly as it was. Unlike
// AddFlowDelta there is no repair ladder.
func AddFlow(sched *schedule.Schedule, f *flow.Flow, cfg Config) (*Result, error) {
	if err := validateDeltaConfig(sched, cfg); err != nil {
		return nil, err
	}
	if err := validateDeltaFlow(sched, f); err != nil {
		return nil, err
	}
	for _, tx := range sched.Txs() {
		if tx.FlowID == f.ID {
			return nil, fmt.Errorf("scheduler: flow %d already scheduled", f.ID)
		}
		if tx.FlowID > f.ID {
			return nil, fmt.Errorf("scheduler: flow %d must be lower priority than scheduled flow %d",
				f.ID, tx.FlowID)
		}
	}

	d := newDeltaOp(sched, cfg, nil)
	start := time.Now()
	defer func() { d.eng.flushMetrics(time.Since(start)) }()
	res := &Result{Schedule: sched, FailedFlow: -1, LambdaR: d.eng.lambdaR}
	ok, err := d.placeFlow(f)
	if err != nil {
		return nil, err
	}
	if !ok {
		res.FailedFlow = f.ID
		return res, nil
	}
	res.Schedulable = true
	return res, nil
}
