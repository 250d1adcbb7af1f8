package experiment

import (
	"fmt"

	"wsan/internal/detect"
	"wsan/internal/netsim"
	"wsan/internal/routing"
	"wsan/internal/scheduler"
	"wsan/internal/topology"
)

// DetectionParams pins down the Sec. VII-E experiment. Defaults follow the
// paper: 50 peer-to-peer flows at 1 s period on 4 channels, 6 epochs of 15
// minutes with 18 PRR samples each, WiFi-style interference from one
// Raspberry-Pi pair per floor on 802.15.4 channels 11–14.
type DetectionParams struct {
	NumFlows    int
	NumChannels int
	// Epochs and EpochSlots define the observation horizon; WindowSlots is
	// the PRR sample granularity (EpochSlots/WindowSlots samples per epoch).
	Epochs      int
	EpochSlots  int
	WindowSlots int
	// ProbeEverySlots paces neighbor-discovery probes (contention-free
	// samples).
	ProbeEverySlots    int
	FadingSigmaDB      float64
	SurveyDriftSigmaDB float64
	// Interferer knobs.
	InterfererPowerDBm float64
	InterfererDuty     float64
	InterfererBurst    float64
}

// DefaultDetectionParams mirrors the paper.
func DefaultDetectionParams() DetectionParams {
	return DetectionParams{
		NumFlows:           50,
		NumChannels:        4,
		Epochs:             6,
		EpochSlots:         90_000, // 15 min of 10 ms slots
		WindowSlots:        5_000,  // 18 samples per epoch
		ProbeEverySlots:    250,
		FadingSigmaDB:      2.5,
		SurveyDriftSigmaDB: 2.5,
		InterfererPowerDBm: -20,
		InterfererDuty:     0.25,
		InterfererBurst:    20,
	}
}

// DetectionOutcome is the classification result of one (algorithm,
// environment) detection run.
type DetectionOutcome struct {
	Alg scheduler.Algorithm
	// WithInterference marks the WiFi-injected environment.
	WithInterference bool
	// ReuseLinks is the number of links associated with channel reuse.
	ReuseLinks int
	// Reports are the per-link-per-epoch classifications.
	Reports []detect.Report
}

// wifiInterferers places one interferer at the centroid of each floor,
// matching the paper's one-Raspberry-Pi-pair-per-floor setup.
func wifiInterferers(tb *topology.Testbed, p DetectionParams) []netsim.Interferer {
	type acc struct {
		x, y, z float64
		n       int
	}
	floors := make(map[int]*acc)
	for _, nd := range tb.Nodes {
		a := floors[nd.Floor]
		if a == nil {
			a = &acc{}
			floors[nd.Floor] = a
		}
		a.x += nd.X
		a.y += nd.Y
		a.z += nd.Z
		a.n++
	}
	var out []netsim.Interferer
	for f := 0; f < len(floors); f++ {
		a := floors[f]
		if a == nil {
			continue
		}
		out = append(out, netsim.Interferer{
			X: a.x / float64(a.n), Y: a.y / float64(a.n), Z: a.z / float64(a.n),
			Floor:          f,
			PowerDBm:       p.InterfererPowerDBm,
			DutyCycle:      p.InterfererDuty,
			MeanBurstSlots: p.InterfererBurst,
			Channels:       topology.Channels(p.NumChannels),
		})
	}
	return out
}

// detectionWorkload finds the first 1 s-period peer-to-peer workload of p
// that alg schedules, searching 100 seeds from opt.Seed*9_000_011.
func (e *Env) detectionWorkload(p DetectionParams, alg scheduler.Algorithm, opt Options) (flowSet, error) {
	spec := TrialSpec{
		Traffic:   routing.PeerToPeer,
		Channels:  p.NumChannels,
		Flows:     p.NumFlows,
		PeriodExp: [2]int{0, 0},
		Seed:      opt.Seed * 9_000_011,
	}
	sets, _, err := e.findSchedulableSets(spec, []scheduler.Algorithm{alg}, 1, 99, opt)
	if err != nil {
		return flowSet{}, fmt.Errorf("no schedulable %v workload: %w", alg, err)
	}
	return sets[0], nil
}

// RunDetection schedules one 1 s-period workload with the given algorithm,
// executes it for the full observation horizon with and without external
// interference, and classifies every reuse-associated link.
func RunDetection(env *Env, alg scheduler.Algorithm, p DetectionParams, opt Options) (clean, noisy DetectionOutcome, err error) {
	fs, err := env.detectionWorkload(p, alg, opt)
	if err != nil {
		return clean, noisy, fmt.Errorf("detection: %w", err)
	}
	hyper := fs.results[alg].Schedule.NumSlots()
	totalSlots := p.Epochs * p.EpochSlots
	reps := (totalSlots + hyper - 1) / hyper
	run := func(interferers []netsim.Interferer) (DetectionOutcome, error) {
		res, err := netsim.Run(netsim.Config{
			Testbed:            env.TB,
			Flows:              fs.flows,
			Schedule:           fs.results[alg].Schedule,
			Channels:           topology.Channels(p.NumChannels),
			Hyperperiods:       reps,
			FadingSigmaDB:      p.FadingSigmaDB,
			SurveyDriftSigmaDB: p.SurveyDriftSigmaDB,
			Interferers:        interferers,
			EpochSlots:         p.EpochSlots,
			SampleWindowSlots:  p.WindowSlots,
			ProbeEverySlots:    p.ProbeEverySlots,
			Metrics:            env.Metrics,
			Seed:               fs.seed,
		})
		if err != nil {
			return DetectionOutcome{}, err
		}
		return DetectionOutcome{
			Alg:              alg,
			WithInterference: len(interferers) > 0,
			ReuseLinks:       len(fs.results[alg].Schedule.ReusedLinks()),
			Reports:          detect.Classify(res.LinkEpochs, detect.DefaultConfig()),
		}, nil
	}
	clean, err = run(nil)
	if err != nil {
		return clean, noisy, fmt.Errorf("detection clean run: %w", err)
	}
	noisy, err = run(wifiInterferers(env.TB, p))
	if err != nil {
		return clean, noisy, fmt.Errorf("detection interference run: %w", err)
	}
	return clean, noisy, nil
}

// Fig10 reproduces Fig. 10: mean PRRs (reuse slots vs contention-free
// slots) of the links that fail the reliability requirement, split by the
// K-S verdict, for RA and RC under external interference. The clean-
// environment counts are included as context, mirroring the narrative of
// Sec. VII-E.
func Fig10(env *Env, opt Options) ([]*Table, error) {
	return Fig10Scaled(env, opt, DefaultDetectionParams())
}

// Fig10Scaled runs the same experiment at reduced scale (for benchmarks).
func Fig10Scaled(env *Env, opt Options, p DetectionParams) ([]*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Fig 10: PRR of low-reliability links by K-S verdict (%s, WiFi interference)", env.TB.Name),
		Header: []string{"alg", "env", "verdict", "links(link-epochs)", "mean PRR reuse", "mean PRR cf"},
	}
	summary := &Table{
		Title:  "Sec VII-E summary: links associated with channel reuse",
		Header: []string{"alg", "reuse links", "low-PRR clean", "rejected clean", "low-PRR interf", "rejected interf", "accepted interf"},
	}
	for _, alg := range reuseAlgs {
		clean, noisy, err := RunDetection(env, alg, p, opt)
		if err != nil {
			return nil, fmt.Errorf("fig10 %v: %w", alg, err)
		}
		for _, oc := range []DetectionOutcome{clean, noisy} {
			envName := "clean"
			if oc.WithInterference {
				envName = "wifi"
			}
			for _, v := range []detect.Verdict{detect.ReuseDegraded, detect.OtherCause} {
				reuse, cf, n := detect.MeanPRRs(oc.Reports, v)
				row := []string{alg.String(), envName, v.String(), itoa(n)}
				if n == 0 {
					row = append(row, "-", "-")
				} else {
					row = append(row, f3(reuse), f3(cf))
				}
				t.Rows = append(t.Rows, row)
			}
		}
		lowClean := countLow(clean.Reports)
		lowNoisy := countLow(noisy.Reports)
		summary.Rows = append(summary.Rows, []string{
			alg.String(),
			itoa(clean.ReuseLinks),
			itoa(lowClean),
			itoa(len(detect.Links(clean.Reports, detect.ReuseDegraded))),
			itoa(lowNoisy),
			itoa(len(detect.Links(noisy.Reports, detect.ReuseDegraded))),
			itoa(len(detect.Links(noisy.Reports, detect.OtherCause))),
		})
	}
	return []*Table{summary, t}, nil
}

// countLow counts distinct links with at least one below-threshold epoch.
func countLow(reports []detect.Report) int {
	seen := make(map[[2]int]bool)
	for _, r := range reports {
		if r.Verdict == detect.ReuseDegraded || r.Verdict == detect.OtherCause || r.Verdict == detect.Inconclusive {
			seen[[2]int{r.Link.From, r.Link.To}] = true
		}
	}
	return len(seen)
}

// Fig11 reproduces Fig. 11: the number of rejected (reuse-degraded) links
// in each epoch, for RA and RC, under external interference.
func Fig11(env *Env, opt Options) ([]*Table, error) {
	return Fig11Scaled(env, opt, DefaultDetectionParams())
}

// Fig11Scaled runs the same experiment at reduced scale (for benchmarks).
func Fig11Scaled(env *Env, opt Options, p DetectionParams) ([]*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Fig 11: rejected links per epoch under WiFi interference (%s)", env.TB.Name),
		Header: []string{"alg"},
	}
	for ep := 0; ep < p.Epochs; ep++ {
		t.Header = append(t.Header, fmt.Sprintf("epoch %d", ep+1))
	}
	for _, alg := range reuseAlgs {
		_, noisy, err := RunDetection(env, alg, p, opt)
		if err != nil {
			return nil, fmt.Errorf("fig11 %v: %w", alg, err)
		}
		counts := detect.CountByEpoch(noisy.Reports, detect.ReuseDegraded)
		row := []string{alg.String()}
		for ep := 0; ep < p.Epochs; ep++ {
			row = append(row, itoa(counts[ep]))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}
