package experiment

import (
	"fmt"

	"wsan/internal/detect"
	"wsan/internal/netsim"
	"wsan/internal/repair"
	"wsan/internal/scheduler"
	"wsan/internal/topology"
)

// ExtRepair closes the Sec. VI loop end to end: schedule aggressively (RA,
// maximum reuse exposure), execute, detect reuse-degraded links, reassign
// their transmissions to contention-free cells, re-execute, and compare
// delivery. The paper motivates detection with exactly this remediation but
// stops at the classifier.
func ExtRepair(env *Env, opt Options) ([]*Table, error) {
	p := DefaultDetectionParams()
	// Shorter horizon than the detection experiment: one epoch to detect,
	// then re-simulate the repaired schedule for the same span.
	p.Epochs = 2
	return ExtRepairScaled(env, opt, p)
}

// ExtRepairScaled runs the same experiment at reduced scale.
func ExtRepairScaled(env *Env, opt Options, p DetectionParams) ([]*Table, error) {
	// A schedulable RA workload (detection's setup) — heavy reuse exposure.
	fs, err := env.detectionWorkload(p, scheduler.RA, opt)
	if err != nil {
		return nil, fmt.Errorf("ext-repair: %w", err)
	}
	sched := fs.results[scheduler.RA].Schedule
	simulate := func(stats bool) (*netsim.Result, error) {
		cfg := netsim.Config{
			Testbed:            env.TB,
			Flows:              fs.flows,
			Schedule:           sched,
			Channels:           topology.Channels(p.NumChannels),
			Hyperperiods:       p.Epochs * p.EpochSlots / sched.NumSlots(),
			FadingSigmaDB:      p.FadingSigmaDB,
			SurveyDriftSigmaDB: p.SurveyDriftSigmaDB,
			Metrics:            env.Metrics,
			Seed:               fs.seed,
		}
		if stats {
			cfg.EpochSlots = p.EpochSlots
			cfg.SampleWindowSlots = p.WindowSlots
			cfg.ProbeEverySlots = p.ProbeEverySlots
		}
		return netsim.Run(cfg)
	}
	before, err := simulate(true)
	if err != nil {
		return nil, fmt.Errorf("ext-repair: before run: %w", err)
	}
	reports := detect.Classify(before.LinkEpochs, detect.DefaultConfig())
	repaired, err := repair.RescheduleFromReports(sched, fs.flows, reports)
	if err != nil {
		return nil, fmt.Errorf("ext-repair: %w", err)
	}
	after, err := simulate(false)
	if err != nil {
		return nil, fmt.Errorf("ext-repair: after run: %w", err)
	}
	minOf := func(r *netsim.Result) float64 {
		lo := 2.0
		for _, v := range r.PDRs() {
			if v < lo {
				lo = v
			}
		}
		return lo
	}
	meanOf := func(r *netsim.Result) float64 {
		sum, n := 0.0, 0
		for _, v := range r.PDRs() {
			sum += v
			n++
		}
		return sum / float64(n)
	}
	t := &Table{
		Title: fmt.Sprintf("Ext: detect→repair loop on an RA schedule (%d flows, %d channels, %s)",
			p.NumFlows, p.NumChannels, env.TB.Name),
		Header: []string{"stage", "degraded links", "moved tx", "unmovable", "min PDR", "mean PDR"},
		Rows: [][]string{
			{"before", itoa(repaired.DegradedLinks), "-", "-", f3(minOf(before)), f3(meanOf(before))},
			{"after", "-", itoa(repaired.Moved), itoa(len(repaired.Failed)), f3(minOf(after)), f3(meanOf(after))},
		},
	}
	return []*Table{t}, nil
}
