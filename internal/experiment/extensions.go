package experiment

import (
	"fmt"

	"wsan/internal/analysis"
	"wsan/internal/routing"
	"wsan/internal/scheduler"
)

// The extension experiments go beyond the paper's figures: they quantify
// design choices the paper discusses qualitatively (the ρ_t trade-off, the
// hop-distance-maximization heuristic) and add the latency view of what
// channel reuse buys.

// ExtLatency compares end-to-end schedule latency under NR, RA, and RC on
// workloads all three can schedule: reuse lets transmissions land earlier,
// so worst-case latency and slack should improve even where all three are
// schedulable.
func ExtLatency(env *Env, opt Options) ([]*Table, error) {
	p := DefaultReliabilityParams()
	p.NumFlows = 35 // light enough that NR schedules most sets
	sets, skipped, err := env.reliabilitySets(p, opt)
	if err != nil {
		return nil, fmt.Errorf("ext-latency: %w", err)
	}
	t := &Table{
		Title: fmt.Sprintf("Ext: end-to-end schedule latency (%d flows, %d channels, %s)",
			p.NumFlows, p.NumChannels, env.TB.Name),
		Header: []string{"set", "alg", "mean ms", "worst ms", "min slack ms"},
	}
	if skipped > 0 {
		t.Note = fmt.Sprintf("%d candidate flow sets skipped", skipped)
	}
	const msPerSlot = 10
	for i, fs := range sets {
		for _, alg := range allAlgs {
			lats, err := analysis.Latencies(fs.flows, fs.results[alg].Schedule)
			if err != nil {
				return nil, fmt.Errorf("ext-latency set %d %v: %w", i+1, alg, err)
			}
			var meanSum float64
			worst, minSlack := 0, int(^uint(0)>>1)
			for _, l := range lats {
				meanSum += l.MeanSlots
				if l.WorstSlots > worst {
					worst = l.WorstSlots
				}
				if l.Slack() < minSlack {
					minSlack = l.Slack()
				}
			}
			t.Rows = append(t.Rows, []string{
				itoa(i + 1), alg.String(),
				fmt.Sprintf("%.1f", meanSum/float64(len(lats))*msPerSlot),
				itoa(worst * msPerSlot),
				itoa(minSlack * msPerSlot),
			})
		}
	}
	return []*Table{t}, nil
}

// ExtRhoSweep quantifies the ρ_t trade-off the paper describes in Sec. V-C:
// a larger minimum reuse hop distance is safer but reduces capacity. It
// sweeps ρ_t for RC (and RA for reference) on a heavy peer-to-peer workload.
func ExtRhoSweep(env *Env, opt Options) ([]*Table, error) {
	spec := TrialSpec{Traffic: routing.PeerToPeer, Channels: 4, Flows: 100, PeriodExp: [2]int{0, 2}}
	t := &Table{
		Title: fmt.Sprintf("Ext: schedulable ratio vs ρ_t (peer-to-peer, %d flows, %d channels, %s)",
			spec.Flows, spec.Channels, env.TB.Name),
		Header: []string{"ρ_t", "RA", "RC", "RC mean reuse hop"},
	}
	for _, rhoT := range []int{2, 3, 4} {
		ok, hists, err := env.countSchedulable(spec, reuseAlgs, rhoT, opt, reuseHops.hist)
		if err != nil {
			return nil, err
		}
		meanHop, _ := meanReuseHop(hists[scheduler.RC])
		t.Rows = append(t.Rows, []string{
			itoa(rhoT),
			ratio(ok[scheduler.RA], opt.Trials),
			ratio(ok[scheduler.RC], opt.Trials),
			meanHop,
		})
	}
	return []*Table{t}, nil
}

// meanReuseHop renders the mean of a reuse hop-count histogram ("-" when it
// is empty) and returns the number of reused cells it counts.
func meanReuseHop(hops map[int]int) (string, int) {
	total, cells := 0, 0
	for h, n := range hops {
		total += h * n
		cells += n
	}
	if cells == 0 {
		return "-", 0
	}
	return fmt.Sprintf("%.2f", float64(total)/float64(cells)), cells
}

// ExtPriority compares Deadline-Monotonic against Rate-Monotonic priority
// assignment for all three schedulers on a heavy peer-to-peer workload.
func ExtPriority(env *Env, opt Options) ([]*Table, error) {
	spec := TrialSpec{Traffic: routing.PeerToPeer, Channels: 5, Flows: 130, PeriodExp: [2]int{0, 2}}
	t := &Table{
		Title: fmt.Sprintf("Ext: DM vs RM priority assignment (peer-to-peer, %d flows, %d channels, %s)",
			spec.Flows, spec.Channels, env.TB.Name),
		Header: []string{"priority", "NR", "RA", "RC"},
	}
	for _, prio := range []string{"DM", "RM"} {
		spec.RateMonotonic = prio == "RM"
		if err := env.ratioRow(t, spec, opt, prio); err != nil {
			return nil, err
		}
	}
	return []*Table{t}, nil
}

// ExtFixedRho is the ablation of RC's maximize-hop-distance heuristic: RC
// with the full descending ρ search versus RC jumping straight to ρ_t, in
// terms of schedulability, reuse hop distances, and worst-case delivery.
func ExtFixedRho(env *Env, opt Options) ([]*Table, error) {
	p := DefaultReliabilityParams()
	sets, skipped, err := env.reliabilitySets(p, opt)
	if err != nil {
		return nil, fmt.Errorf("ext-fixedrho: %w", err)
	}
	ce, err := env.ForChannels(p.NumChannels)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Ext: RC ρ-search ablation (%d flows, %d channels, %s)",
			p.NumFlows, p.NumChannels, env.TB.Name),
		Header: []string{"set", "variant", "mean reuse hop", "reused cells", "min PDR"},
	}
	if skipped > 0 {
		t.Note = fmt.Sprintf("%d candidate flow sets skipped", skipped)
	}
	for i, fs := range sets {
		for _, fixed := range []bool{false, true} {
			res, err := scheduler.Run(CloneFlows(fs.flows), scheduler.Config{
				Algorithm:   scheduler.RC,
				NumChannels: p.NumChannels,
				RhoT:        RhoT,
				HopGR:       ce.Hop,
				Retransmit:  true,
				FixedRho:    fixed,
				Metrics:     env.Metrics,
			})
			if err != nil {
				return nil, err
			}
			variant := "descend"
			if fixed {
				variant = "fixed ρ_t"
			}
			if !res.Schedulable {
				t.Rows = append(t.Rows, []string{itoa(i + 1), variant, "-", "-", "unschedulable"})
				continue
			}
			meanHop, cells := meanReuseHop(res.Schedule.ReuseHopHist(ce.Hop))
			sub := fs
			sub.results = map[scheduler.Algorithm]*scheduler.Result{scheduler.RC: res}
			pdrs, err := env.simulate(sub, scheduler.RC, p, fs.seed)
			if err != nil {
				return nil, err
			}
			minPDR := 2.0
			for _, v := range pdrs {
				if v < minPDR {
					minPDR = v
				}
			}
			t.Rows = append(t.Rows, []string{
				itoa(i + 1), variant, meanHop, itoa(cells), f3(minPDR),
			})
		}
	}
	return []*Table{t}, nil
}
