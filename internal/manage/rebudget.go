package manage

// This file holds the reliability re-budgeting rung of the manage loop:
// compare the per-link PRRs observed this window against the assumptions
// the flows' retransmission budgets were planned from, and when they have
// drifted, re-plan the budgets and re-place the affected flows through the
// delta scheduler. Degradation is graceful, in ladder order: grow budgets
// where a target is missed (and tighten where slack appeared, reclaiming
// slots), then shed retries from the lowest-criticality targeted flows to
// make room, and finally report the per-flow shortfall the network cannot
// close.

import (
	"fmt"
	"slices"
	"sort"

	"wsan/internal/budget"
	"wsan/internal/flow"
	"wsan/internal/netsim"
	"wsan/internal/schedule"
	"wsan/internal/scheduler"
)

// FlowShortfall reports a targeted flow whose predicted end-to-end delivery
// probability under the observed link PRRs falls short of its TargetPDR
// even after re-budgeting.
type FlowShortfall struct {
	FlowID int
	// Target is the flow's TargetPDR.
	Target float64
	// Predicted is the delivery-probability bound the flow's current
	// (post-ladder) budget achieves under the observed PRRs.
	Predicted float64
}

// hasTargets reports whether any flow carries a reliability target; the
// re-budgeting pass is skipped entirely otherwise, so untargeted workloads
// run the classic loop bit-identically.
func hasTargets(flows []*flow.Flow) bool {
	for _, f := range flows {
		if f.TargetPDR > 0 {
			return true
		}
	}
	return false
}

// Re-budgeting trusts a link's observed PRR once the window saw at least
// rebudgetMinSamples attempts on it, and shades every PRR down by
// rebudgetTolerance before planning.
const (
	rebudgetMinSamples = 20
	rebudgetTolerance  = 0.02
)

// rebudgetPass re-plans the retransmission budget of every targeted flow
// against this window's observed link PRRs, applying changes through the
// delta scheduler and recording the outcome in it. Observed PRRs are
// shaded down by rebudgetTolerance before planning — the same conservatism
// the paper applies to channel reuse — which doubles as hysteresis: a
// budget is only tightened when it stays feasible under the shaded
// estimates, and only grown when even they cannot carry the target.
func rebudgetPass(cfg *Config, res *netsim.Result, it *Iteration) error {
	sim := cfg.Sim
	observed := res.LinkPRRs(rebudgetMinSamples)
	effPRR := func(l flow.Link) (float64, bool) {
		if p, ok := observed[l]; ok {
			return p, true
		}
		if cfg.LinkPRR != nil {
			return cfg.LinkPRR(l), true
		}
		return 0, false
	}
	// Flows without a budget hold the schedule's retry depth per hop, and
	// every placement keeps it.
	depth := scheduler.RetryDepth(sim.Schedule, sim.Flows)
	for _, f := range sim.Flows {
		if f.TargetPDR <= 0 || len(f.Route) == 0 {
			continue
		}
		// Shaded per-hop PRRs; a hop with neither an observation nor a
		// planning-time estimate leaves this flow alone this window.
		pess := make([]float64, len(f.Route))
		known := true
		for h, l := range f.Route {
			p, ok := effPRR(l)
			if !ok {
				known = false
				break
			}
			p -= rebudgetTolerance
			if p < 0 {
				p = 0
			}
			pess[h] = p
		}
		if !known {
			continue
		}
		cur := make([]int, len(f.Route))
		curTotal := 0
		for h := range cur {
			cur[h] = f.HopAttempts(h, depth)
			curTotal += cur[h]
		}
		predicted := budget.DeliveryProb(pess, cur)
		plan, err := budget.Compute(pess, f.TargetPDR, budget.DefaultMaxAttemptsPerHop)
		if err != nil {
			return fmt.Errorf("rebudget flow %d: %w", f.ID, err)
		}
		apply := false
		switch {
		case plan.Feasible && !slices.Equal(plan.Attempts, cur) &&
			(predicted < f.TargetPDR || plan.TotalSlots < curTotal):
			// Grow to restore the target, or tighten to reclaim slack the
			// shaded estimates say is safe to give up.
			apply = true
		case !plan.Feasible:
			// The target is out of reach even at the per-hop cap; still
			// move to the capped best-effort budget when it beats what is
			// deployed, then report the shortfall.
			apply = !slices.Equal(plan.Attempts, cur) && plan.Prob > predicted
		}
		if apply {
			placed, err := applyBudget(sim, f, plan.Attempts, depth, it)
			if err != nil {
				return err
			}
			if placed {
				it.Rebudgeted++
				predicted = budget.DeliveryProb(pess, plan.Attempts)
			}
		}
		if predicted < f.TargetPDR {
			it.Shortfalls = append(it.Shortfalls, FlowShortfall{
				FlowID: f.ID, Target: f.TargetPDR, Predicted: predicted,
			})
		}
	}
	return nil
}

// applyBudget re-places one flow under a new per-hop budget, descending the
// degradation ladder when the slotframe has no room: retries are shed from
// the lowest-criticality (highest-ID) targeted flows below f until the
// placement fits or no victims remain. Every placement is one rebudget op
// at retry depth depth (see scheduler.RetryDepth), and a budget is
// recorded on sim.Flows only after its op commits, so each op is told the
// workload the grid holds. Returns whether the new budget is in effect; on
// failure the flow keeps its previous budget and schedule, and every
// victim shed for it gets its budget and transmissions back.
// Only concessions that bought the placement count in RetriesShed and
// ShedFlows.
func applyBudget(sim netsim.Config, f *flow.Flow, attempts []int,
	depth int, it *Iteration) (bool, error) {
	place := scheduler.Config{
		Algorithm:   scheduler.NR,
		NumChannels: sim.Schedule.NumOffsets(),
		Retransmit:  depth > 1,
		Metrics:     sim.Metrics,
	}
	rebudget := func(g *flow.Flow, b []int) ([]schedule.Change, bool, error) {
		res, err := scheduler.ApplyDeltaBatch(sim.Schedule, sim.Flows,
			[]scheduler.BatchOp{{Kind: scheduler.BatchRebudget, FlowID: g.ID, Budget: b}}, place)
		if err != nil {
			return nil, false, fmt.Errorf("rebudget flow %d: %w", g.ID, err)
		}
		if res.Schedulable {
			g.TxBudget = slices.Clone(b)
		}
		return res.Changes, res.Schedulable, nil
	}
	if _, ok, err := rebudget(f, attempts); ok || err != nil {
		return ok, err
	}
	// Rung 2: shed retries from lower-criticality targeted flows, highest
	// ID first, and retry after each concession.
	type concession struct {
		victim  *flow.Flow
		budget  []int // the victim's budget before the shed
		changes []schedule.Change
		retries int
	}
	var shed []concession
	for i := len(sim.Flows) - 1; i >= 0; i-- {
		v := sim.Flows[i]
		if v.ID <= f.ID || v.TargetPDR <= 0 || len(v.Route) == 0 {
			continue
		}
		floor := make([]int, len(v.Route))
		vTotal := 0
		for h := range floor {
			floor[h] = 1
			vTotal += v.HopAttempts(h, depth)
		}
		if vTotal <= len(v.Route) {
			continue // already at the floor
		}
		prev := v.TxBudget
		changes, ok, err := rebudget(v, floor)
		if err != nil {
			return false, err
		}
		if !ok {
			continue
		}
		shed = append(shed, concession{v, prev, changes, vTotal - len(v.Route)})
		if _, ok, err := rebudget(f, attempts); ok || err != nil {
			if ok {
				for _, c := range shed {
					it.RetriesShed += c.retries
					it.ShedFlows = append(it.ShedFlows, c.victim.ID)
				}
				sort.Ints(it.ShedFlows)
			}
			return ok, err
		}
	}
	// No concession bought the placement: undo them, newest first, with
	// the inverse of each op's changes.
	for i := len(shed) - 1; i >= 0; i-- {
		c := shed[i]
		if err := schedule.Apply(sim.Schedule, schedule.Invert(c.changes)); err != nil {
			return false, fmt.Errorf("restore flow %d: %w", c.victim.ID, err)
		}
		c.victim.TxBudget = c.budget
	}
	return false, nil
}
