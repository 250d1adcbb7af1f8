package experiment

import (
	"fmt"

	"wsan/internal/manage"
	"wsan/internal/netsim"
	"wsan/internal/scheduler"
	"wsan/internal/topology"
)

// ExtManage runs the full closed loop — execute, classify, repair, compact,
// repeat — on an aggressively reused schedule in a clean environment, where
// every detected degradation really is reuse-caused and therefore
// repairable. It is the operational end-state the paper's Sec. VI machinery
// enables: the manager converges toward a clean schedule without a global
// reschedule. (Under external interference the loop correctly keeps
// re-detecting links repair cannot help — see ext-repair and Fig 10.)
func ExtManage(env *Env, opt Options) ([]*Table, error) {
	p := DefaultDetectionParams()
	p.Epochs = 2    // two epochs per observation window: stabler verdicts
	p.NumFlows = 40 // leave slack for repairs to land in exclusive cells
	fs, err := env.detectionWorkload(p, scheduler.RA, opt)
	if err != nil {
		return nil, fmt.Errorf("ext-manage: %w", err)
	}
	iters, err := manage.Loop(manage.Config{
		Sim: netsim.Config{
			Testbed:            env.TB,
			Flows:              fs.flows,
			Schedule:           fs.results[scheduler.RA].Schedule,
			Channels:           topology.Channels(p.NumChannels),
			EpochSlots:         p.Epochs * p.EpochSlots,
			SampleWindowSlots:  p.WindowSlots,
			ProbeEverySlots:    p.ProbeEverySlots,
			FadingSigmaDB:      p.FadingSigmaDB,
			SurveyDriftSigmaDB: p.SurveyDriftSigmaDB,
			Metrics:            env.Metrics,
			Seed:               fs.seed,
		},
		MaxIterations: 5,
	})
	if err != nil {
		return nil, fmt.Errorf("ext-manage: %w", err)
	}
	t := &Table{
		Title: fmt.Sprintf("Ext: closed management loop on an RA schedule (%d flows, %d channels, %s)",
			p.NumFlows, p.NumChannels, env.TB.Name),
		Header: []string{"iteration", "degraded links", "moved tx", "unmovable", "delta entries", "devices updated", "min PDR", "mean PDR"},
	}
	for _, it := range iters {
		t.Rows = append(t.Rows, []string{
			itoa(it.Index + 1),
			itoa(it.Degraded),
			itoa(it.Moved),
			itoa(it.Unmovable),
			itoa(it.DeltaChanges),
			itoa(it.AffectedDevices),
			f3(it.MinPDR),
			f3(it.MeanPDR),
		})
	}
	return []*Table{t}, nil
}
