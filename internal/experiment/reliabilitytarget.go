package experiment

import (
	"fmt"

	"wsan/internal/budget"
	"wsan/internal/flow"
	"wsan/internal/netsim"
	"wsan/internal/scheduler"
	"wsan/internal/topology"
)

// ReliabilityTargetParams pins down the reliability-target extension study:
// the Fig. 8 simulation setup, re-run with per-flow delivery-probability
// targets that drive per-hop retransmission budgeting before scheduling.
type ReliabilityTargetParams struct {
	// Targets are the per-flow delivery-probability targets to sweep; 0
	// means uniform retries (the paper's baseline of one retransmission per
	// hop).
	Targets       []float64
	NumFlows      int
	NumChannels   int
	PeriodExp     [2]int
	Hyperperiods  int
	FadingSigmaDB float64
	// SurveyDriftSigmaDB is the survey-to-runtime gain drift.
	SurveyDriftSigmaDB float64
	// MaxAttemptsPerHop caps the planner's per-hop budget (0 = default).
	MaxAttemptsPerHop int
}

// DefaultReliabilityTargetParams mirrors the Fig. 8 scale with a
// baseline/moderate/strict target sweep.
func DefaultReliabilityTargetParams() ReliabilityTargetParams {
	return ReliabilityTargetParams{
		Targets:            []float64{0, 0.9, 0.99},
		NumFlows:           40,
		NumChannels:        4,
		PeriodExp:          [2]int{-1, 0},
		Hyperperiods:       100,
		FadingSigmaDB:      2.5,
		SurveyDriftSigmaDB: 2.5,
	}
}

// surveyLinkPRR evaluates the survey PRR of a link averaged over the hopping
// channel list — the planning estimate the budgeting pass consumes.
func (e *Env) surveyLinkPRR(ce *ChanEnv) func(flow.Link) float64 {
	return func(l flow.Link) float64 {
		sum := 0.0
		for _, ch := range ce.Channels {
			sum += e.TB.PRR(l.From, l.To, ch)
		}
		return sum / float64(len(ce.Channels))
	}
}

// ExtReliability runs the reliability-target study: one workload scheduled
// under NR, RA, and RC for each delivery-probability target, with the
// budgeting pass sizing per-hop retransmission slots from the survey PRRs.
// Per (target, algorithm) cell it reports the budget's total transmission
// slots, how many flows the simulator carried past their target, and the
// achieved PDR floor.
func ExtReliability(env *Env, opt Options) ([]*Table, error) {
	return ExtReliabilityScaled(env, opt, DefaultReliabilityTargetParams())
}

// ExtReliabilityScaled is ExtReliability at caller-chosen scale.
func ExtReliabilityScaled(env *Env, opt Options, p ReliabilityTargetParams) ([]*Table, error) {
	ce, err := env.ForChannels(p.NumChannels)
	if err != nil {
		return nil, err
	}
	// Search seeds for a workload every algorithm schedules with uniform
	// retries; budgeted runs then reuse that same workload so the target
	// sweep varies only the budgets.
	sets, _, err := env.findSchedulableSets(reliabilitySpec(p.NumChannels, p.NumFlows, p.PeriodExp, opt),
		allAlgs, 1, maxSkippedSeeds, opt)
	if err != nil {
		return nil, fmt.Errorf("ext-reliability: %w", err)
	}
	base := sets[0].flows
	linkPRR := env.surveyLinkPRR(ce)
	t := &Table{
		Title: fmt.Sprintf("Ext: reliability-target scheduling (%d flows, %d channels, %d executions, %s)",
			p.NumFlows, p.NumChannels, p.Hyperperiods, env.TB.Name),
		Header: []string{"target", "alg", "budget-slots", "infeasible", "met", "minPDR", "meanPDR"},
	}
	for _, target := range p.Targets {
		fs := CloneFlows(base)
		budgetSlots, infeasible := 0, 0
		if target > 0 {
			for _, f := range fs {
				f.TargetPDR = target
			}
			assigns, err := budget.Apply(fs, linkPRR, p.MaxAttemptsPerHop, env.Metrics)
			if err != nil {
				return nil, fmt.Errorf("ext-reliability target %.2f: %w", target, err)
			}
			for _, a := range assigns {
				budgetSlots += a.Plan.TotalSlots
				if !a.Plan.Feasible {
					infeasible++
				}
			}
		}
		for _, alg := range allAlgs {
			res, err := scheduler.Run(CloneFlows(fs), scheduler.Config{
				Algorithm:   alg,
				NumChannels: p.NumChannels,
				RhoT:        RhoT,
				HopGR:       ce.Hop,
				Retransmit:  true,
				Metrics:     env.Metrics,
			})
			if err != nil {
				return nil, fmt.Errorf("ext-reliability target %.2f %v: %w", target, alg, err)
			}
			targetCell := "off"
			if target > 0 {
				targetCell = f3(target)
			}
			if !res.Schedulable {
				t.Rows = append(t.Rows, []string{
					targetCell, alg.String(), itoa(budgetSlots), itoa(infeasible),
					"unschedulable", "-", "-",
				})
				continue
			}
			sim, err := netsim.Run(netsim.Config{
				Testbed:            env.TB,
				Flows:              fs,
				Schedule:           res.Schedule,
				Channels:           topology.Channels(p.NumChannels),
				Hyperperiods:       p.Hyperperiods,
				FadingSigmaDB:      p.FadingSigmaDB,
				SurveyDriftSigmaDB: p.SurveyDriftSigmaDB,
				Metrics:            env.Metrics,
				Seed:               opt.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("ext-reliability target %.2f %v: %w", target, alg, err)
			}
			pdrs := sim.PDRs()
			met, minPDR, sumPDR := 0, 1.0, 0.0
			for _, pdr := range pdrs {
				if target <= 0 || pdr >= target {
					met++
				}
				if pdr < minPDR {
					minPDR = pdr
				}
				sumPDR += pdr
			}
			t.Rows = append(t.Rows, []string{
				targetCell, alg.String(), itoa(budgetSlots), itoa(infeasible),
				fmt.Sprintf("%d/%d", met, len(pdrs)),
				f3(minPDR), f3(sumPDR / float64(len(pdrs))),
			})
		}
	}
	return []*Table{t}, nil
}
