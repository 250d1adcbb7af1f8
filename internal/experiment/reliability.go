package experiment

import (
	"fmt"

	"wsan/internal/flow"
	"wsan/internal/netsim"
	"wsan/internal/routing"
	"wsan/internal/scheduler"
	"wsan/internal/stats"
	"wsan/internal/topology"
)

// ReliabilityParams pins down the Sec. VII-D experiment; the defaults
// follow the paper (4 channels, half the flows at 0.5 s and half at 1 s,
// 100 schedule executions, 5 flow sets) with the flow count scaled to 45 so
// that the synthetic WUSTL topology — whose routes are longer than the
// physical testbed's — still admits NR-schedulable workloads.
type ReliabilityParams struct {
	NumFlowSets   int
	NumFlows      int
	NumChannels   int
	PeriodExp     [2]int
	Hyperperiods  int
	FadingSigmaDB float64
	// SurveyDriftSigmaDB is the survey-to-runtime gain drift (see
	// netsim.Config).
	SurveyDriftSigmaDB float64
	// FadingCorrelation makes per-slot fading bursty (see netsim.Config).
	FadingCorrelation float64
}

// DefaultReliabilityParams mirrors the paper.
func DefaultReliabilityParams() ReliabilityParams {
	return ReliabilityParams{
		NumFlowSets:        5,
		NumFlows:           40,
		NumChannels:        4,
		PeriodExp:          [2]int{-1, 0},
		Hyperperiods:       100,
		FadingSigmaDB:      2.5,
		SurveyDriftSigmaDB: 2.5,
	}
}

// flowSet is one workload that all three algorithms can schedule.
type flowSet struct {
	seed    int64
	flows   []*flow.Flow
	results map[scheduler.Algorithm]*scheduler.Result
}

// reliabilitySets finds the p.NumFlowSets workloads of the Sec. VII-D
// experiments: peer-to-peer flow sets that NR, RA and RC all schedule (the
// paper's five flow sets were all executed under each).
func (e *Env) reliabilitySets(p ReliabilityParams, opt Options) ([]flowSet, int, error) {
	return e.findSchedulableSets(reliabilitySpec(p.NumChannels, p.NumFlows, p.PeriodExp, opt),
		allAlgs, p.NumFlowSets, maxSkippedSeeds, opt)
}

// reliabilitySpec is the first candidate workload of a reliability seed
// search.
func reliabilitySpec(channels, flows int, periodExp [2]int, opt Options) TrialSpec {
	return TrialSpec{
		Traffic:   routing.PeerToPeer,
		Channels:  channels,
		Flows:     flows,
		PeriodExp: periodExp,
		Seed:      opt.Seed * 7_000_003,
	}
}

// maxSkippedSeeds bounds the reliability experiments' seed searches.
const maxSkippedSeeds = 400

// findSchedulableSets searches ascending seeds from spec.Seed for want
// workloads schedulable under every algorithm of algs, and reports how many
// candidate seeds were skipped. It fails once more than maxSkipped
// candidates were skipped.
//
// Candidate seeds are evaluated in parallel batches but consumed strictly in
// ascending seed order, so the chosen sets, the skip count, and the first
// error are bit-identical to the sequential search at any worker count.
func (e *Env) findSchedulableSets(spec TrialSpec, algs []scheduler.Algorithm, want, maxSkipped int, opt Options) ([]flowSet, int, error) {
	if want <= 0 {
		return nil, 0, nil
	}
	batch := opt.workers() * 2
	if batch < 4 {
		batch = 4
	}
	var sets []flowSet
	skipped := 0
	for base := spec.Seed; ; base += int64(batch) {
		cands := make([]*flowSet, batch)
		errs := make([]error, batch)
		_ = forEachIndex(opt.workers(), batch, func(i int) error {
			spec := spec
			spec.Seed = base + int64(i)
			results, fs, err := e.RunTrial(spec, algs)
			if err != nil {
				errs[i] = err
				return nil // keep evaluating; ordering decides which error wins
			}
			for _, res := range results {
				if !res.Schedulable {
					return nil // cands[i] stays nil: skipped
				}
			}
			cands[i] = &flowSet{seed: spec.Seed, flows: fs, results: results}
			return nil
		})
		for i := 0; i < batch; i++ {
			if skipped > maxSkipped {
				return nil, skipped, fmt.Errorf("could not find %d schedulable flow sets (skipped %d)",
					want, skipped)
			}
			if errs[i] != nil {
				return nil, skipped, errs[i]
			}
			if cands[i] == nil {
				skipped++
				continue
			}
			sets = append(sets, *cands[i])
			if len(sets) == want {
				return sets, skipped, nil
			}
		}
	}
}

// simulate executes one algorithm's schedule and returns the per-flow PDRs.
func (e *Env) simulate(fs flowSet, alg scheduler.Algorithm, p ReliabilityParams, simSeed int64) ([]float64, error) {
	res, err := netsim.Run(netsim.Config{
		Testbed:            e.TB,
		Flows:              fs.flows,
		Schedule:           fs.results[alg].Schedule,
		Channels:           topology.Channels(p.NumChannels),
		Hyperperiods:       p.Hyperperiods,
		FadingSigmaDB:      p.FadingSigmaDB,
		FadingCorrelation:  p.FadingCorrelation,
		SurveyDriftSigmaDB: p.SurveyDriftSigmaDB,
		Metrics:            e.Metrics,
		Seed:               simSeed,
	})
	if err != nil {
		return nil, err
	}
	return res.PDRs(), nil
}

// Fig8 reproduces Fig. 8: box plots (as five-number summaries) of the
// packet delivery ratio of every flow, for 5 flow sets under NR, RA, and RC
// on the WUSTL topology.
func Fig8(env *Env, opt Options) ([]*Table, error) {
	return Fig8Scaled(env, opt, DefaultReliabilityParams())
}

// Fig8Scaled runs the same experiment at reduced scale (for benchmarks).
func Fig8Scaled(env *Env, opt Options, p ReliabilityParams) ([]*Table, error) {
	sets, skipped, err := env.reliabilitySets(p, opt)
	if err != nil {
		return nil, fmt.Errorf("fig8: %w", err)
	}
	t := &Table{
		Title: fmt.Sprintf("Fig 8: per-flow PDR box plots (%d flows, %d channels, %d executions, %s)",
			p.NumFlows, p.NumChannels, p.Hyperperiods, env.TB.Name),
		Header: []string{"set", "alg", "min", "q1", "median", "q3", "max"},
	}
	if skipped > 0 {
		t.Note = fmt.Sprintf("%d candidate flow sets skipped (not schedulable under all of NR/RA/RC)", skipped)
	}
	// The set×algorithm simulations are independent; run them concurrently
	// and emit rows from index-addressed slots so the table order (and every
	// per-run random stream, seeded from the set's seed) is unchanged.
	rows := make([][]string, len(sets)*len(allAlgs))
	err = forEachIndex(opt.workers(), len(rows), func(k int) error {
		i, alg := k/len(allAlgs), allAlgs[k%len(allAlgs)]
		fs := sets[i]
		pdrs, err := env.simulate(fs, alg, p, fs.seed)
		if err != nil {
			return fmt.Errorf("fig8 set %d %v: %w", i+1, alg, err)
		}
		fn, err := stats.Summary(pdrs)
		if err != nil {
			return fmt.Errorf("fig8 set %d %v: %w", i+1, alg, err)
		}
		rows[k] = []string{
			itoa(i + 1), alg.String(),
			f3(fn.Min), f3(fn.Q1), f3(fn.Median), f3(fn.Q3), f3(fn.Max),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	return []*Table{t}, nil
}

// Fig9 reproduces Fig. 9: the transmissions-per-channel distribution of RA
// and RC for the same five flow sets used in Fig. 8.
func Fig9(env *Env, opt Options) ([]*Table, error) {
	p := DefaultReliabilityParams()
	sets, skipped, err := env.reliabilitySets(p, opt)
	if err != nil {
		return nil, fmt.Errorf("fig9: %w", err)
	}
	buckets := []int{1, 2, 3, 4}
	t := &Table{
		Title:  fmt.Sprintf("Fig 9: transmissions per channel for the Fig 8 flow sets (%s)", env.TB.Name),
		Header: []string{"set", "alg", "Tx/ch=1", "Tx/ch=2", "Tx/ch=3", "Tx/ch>=4"},
	}
	if skipped > 0 {
		t.Note = fmt.Sprintf("%d candidate flow sets skipped", skipped)
	}
	for i, fs := range sets {
		for _, alg := range reuseAlgs {
			props := stats.Proportions(clampHist(fs.results[alg].Schedule.TxPerChannelHist(), buckets))
			row := []string{itoa(i + 1), alg.String()}
			for _, b := range buckets {
				row = append(row, pct(props[b]))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return []*Table{t}, nil
}
