package experiment

import (
	"fmt"
	"sync"

	"wsan/internal/routing"
	"wsan/internal/schedule"
	"wsan/internal/scheduler"
)

var allAlgs = []scheduler.Algorithm{scheduler.NR, scheduler.RA, scheduler.RC}

// ratioRow appends to t one row of NR, RA and RC schedulable ratios over
// opt.Trials workloads of spec, led by the given cells.
func (e *Env) ratioRow(t *Table, spec TrialSpec, opt Options, lead ...string) error {
	ok, _, err := e.countSchedulable(spec, allAlgs, RhoT, opt, nil)
	if err != nil {
		return err
	}
	for _, alg := range allAlgs {
		lead = append(lead, ratio(ok[alg], opt.Trials))
	}
	t.Rows = append(t.Rows, lead)
	return nil
}

// countSchedulable runs opt.Trials random workloads of spec (in parallel up
// to opt.Workers; trial i uses seed opt.Seed*1_000_003+i in place of
// spec.Seed), schedules each under every algorithm of algs with minimum
// reuse distance rhoT, and counts per algorithm how many were schedulable.
// When hist is non-nil it also sums, per algorithm, hist of every
// schedulable result. Every run in a trial recycles one pooled scratch grid
// — grid construction dominated this loop's allocation profile; placement
// decisions are unchanged by the reuse — so hist runs before the next
// algorithm reuses the grid.
func (e *Env) countSchedulable(spec TrialSpec, algs []scheduler.Algorithm, rhoT int, opt Options,
	hist func(*scheduler.Result, *ChanEnv) map[int]int) (map[scheduler.Algorithm]int, map[scheduler.Algorithm]map[int]int, error) {
	var mu sync.Mutex
	ok := make(map[scheduler.Algorithm]int, len(algs))
	hists := make(map[scheduler.Algorithm]map[int]int, len(algs))
	for _, alg := range algs {
		hists[alg] = map[int]int{}
	}
	err := forEachTrial(opt, func(trial int) error {
		spec := spec
		spec.Seed = opt.Seed*1_000_003 + int64(trial)
		fs, ce, err := e.GenerateFlows(spec)
		if err != nil {
			return err
		}
		scratch, _ := e.schedPool.Get().(*schedule.Schedule)
		for _, alg := range algs {
			res, err := scheduler.Run(fs, scheduler.Config{
				Algorithm:   alg,
				NumChannels: spec.Channels,
				RhoT:        rhoT,
				HopGR:       ce.Hop,
				Retransmit:  true,
				Metrics:     e.Metrics,
				Scratch:     scratch,
			})
			if err != nil {
				return fmt.Errorf("%v: %w", alg, err)
			}
			scratch = res.Schedule
			if !res.Schedulable {
				continue
			}
			var h map[int]int
			if hist != nil {
				h = hist(res, ce)
			}
			mu.Lock()
			ok[alg]++
			for k, v := range h {
				hists[alg][k] += v
			}
			mu.Unlock()
		}
		e.schedPool.Put(scratch)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return ok, hists, nil
}

// channelSweep is the channel range used by Figs. 1(a,b), 2(a,b), 3(a),
// 4, and 5.
var channelSweep = []int{3, 4, 5, 6, 7, 8}

// ratioPanel is one schedulable-ratio sub-figure: the channel count or the
// flow count (axis) swept over points, the rest of the workload fixed by
// base.
type ratioPanel struct {
	base   TrialSpec
	axis   string // "channels" or "flows"
	points []int
}

// ratioFigure renders each panel as one table titled "<fig>(a): …",
// "<fig>(b): …", and so on.
func (e *Env) ratioFigure(fig string, opt Options, panels ...ratioPanel) ([]*Table, error) {
	var out []*Table
	for i, p := range panels {
		label := fmt.Sprintf("%s(%c)", fig, 'a'+i)
		fixed := fmt.Sprintf("%d flows", p.base.Flows)
		if p.axis == "flows" {
			fixed = fmt.Sprintf("%d channels", p.base.Channels)
		}
		t := &Table{
			Title: fmt.Sprintf("%s: schedulable ratio vs #%s (%v, %s, P=[2^%d,2^%d]s, %s)",
				label, p.axis, p.base.Traffic, fixed, p.base.PeriodExp[0], p.base.PeriodExp[1], e.TB.Name),
			Header: []string{p.axis, "NR", "RA", "RC"},
		}
		for _, x := range p.points {
			spec := p.base
			if p.axis == "flows" {
				spec.Flows = x
			} else {
				spec.Channels = x
			}
			if err := e.ratioRow(t, spec, opt, itoa(x)); err != nil {
				return nil, fmt.Errorf("%s: %w", label, err)
			}
		}
		out = append(out, t)
	}
	return out, nil
}

// flowSweep is the flow-count range of Figs. 2(c) and 3(b).
var flowSweep = []int{40, 60, 80, 100, 120, 140, 160}

// Fig1 reproduces Fig. 1: schedulable ratios for centralized traffic on the
// Indriya topology — (a) and (b) vary channels under two period ranges, (c)
// varies the flow count.
func Fig1(env *Env, opt Options) ([]*Table, error) {
	return env.ratioFigure("Fig 1", opt,
		ratioPanel{TrialSpec{Traffic: routing.Centralized, Flows: 60, PeriodExp: [2]int{0, 2}}, "channels", channelSweep},
		ratioPanel{TrialSpec{Traffic: routing.Centralized, Flows: 45, PeriodExp: [2]int{-1, 3}}, "channels", channelSweep},
		ratioPanel{TrialSpec{Traffic: routing.Centralized, Channels: 4, PeriodExp: [2]int{0, 2}}, "flows", []int{40, 45, 50, 55, 60, 65, 70}})
}

// Fig2 reproduces Fig. 2: the same sweeps for peer-to-peer traffic
// (Indriya).
func Fig2(env *Env, opt Options) ([]*Table, error) {
	return env.ratioFigure("Fig 2", opt,
		ratioPanel{TrialSpec{Traffic: routing.PeerToPeer, Flows: 100, PeriodExp: [2]int{0, 2}}, "channels", channelSweep},
		ratioPanel{TrialSpec{Traffic: routing.PeerToPeer, Flows: 60, PeriodExp: [2]int{-1, 3}}, "channels", channelSweep},
		ratioPanel{TrialSpec{Traffic: routing.PeerToPeer, Channels: 5, PeriodExp: [2]int{0, 2}}, "flows", flowSweep})
}

// Fig3 reproduces Fig. 3: peer-to-peer sweeps on the WUSTL topology.
func Fig3(env *Env, opt Options) ([]*Table, error) {
	return env.ratioFigure("Fig 3", opt,
		ratioPanel{TrialSpec{Traffic: routing.PeerToPeer, Flows: 120, PeriodExp: [2]int{0, 2}}, "channels", channelSweep},
		ratioPanel{TrialSpec{Traffic: routing.PeerToPeer, Channels: 5, PeriodExp: [2]int{0, 2}}, "flows", flowSweep})
}
