package experiment

import (
	"fmt"

	"wsan/internal/routing"
	"wsan/internal/scheduler"
	"wsan/internal/stats"
)

// reuseAlgs are the two algorithms that can share channels.
var reuseAlgs = []scheduler.Algorithm{scheduler.RA, scheduler.RC}

// distribution is a per-schedule histogram that an efficiency sweep
// accumulates over schedulable runs.
type distribution struct {
	name, bucket string
	buckets      []int // the first and last buckets also collect every smaller and larger key
	hist         func(*scheduler.Result, *ChanEnv) map[int]int
}

var (
	// txPerChannel is Fig. 4's transmissions-per-channel distribution.
	txPerChannel = distribution{"transmissions per channel", "Tx/channel", []int{1, 2, 3, 4},
		func(res *scheduler.Result, _ *ChanEnv) map[int]int { return res.Schedule.TxPerChannelHist() }}
	// reuseHops is Fig. 5's channel-reuse hop-count distribution.
	reuseHops = distribution{"channel reuse hop count", "hops", []int{2, 3, 4, 5},
		func(res *scheduler.Result, ce *ChanEnv) map[int]int { return res.Schedule.ReuseHopHist(ce.Hop) }}
)

// efficiencyFigure renders, per workload base, the distribution d of RA and
// RC over the schedulable runs of opt.Trials workloads at each channel
// count, titled "<fig>(a): …", "<fig>(b): …", and so on.
func (e *Env) efficiencyFigure(fig string, d distribution, opt Options, bases ...TrialSpec) ([]*Table, error) {
	var out []*Table
	for i, spec := range bases {
		label := fmt.Sprintf("%s(%c)", fig, 'a'+i)
		t := &Table{
			Title: fmt.Sprintf("%s: %s (%v, %d flows, P=[2^%d,2^%d]s, %s)",
				label, d.name, spec.Traffic, spec.Flows, spec.PeriodExp[0], spec.PeriodExp[1], e.TB.Name),
			Header: []string{"channels", "alg"},
		}
		for j, b := range d.buckets {
			op := "="
			if j == len(d.buckets)-1 {
				op = ">="
			}
			t.Header = append(t.Header, fmt.Sprintf("%s%s%d", d.bucket, op, b))
		}
		for _, nch := range channelSweep {
			spec.Channels = nch
			_, hists, err := e.countSchedulable(spec, reuseAlgs, RhoT, opt, d.hist)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", label, err)
			}
			for _, alg := range reuseAlgs {
				props := stats.Proportions(clampHist(hists[alg], d.buckets))
				row := []string{itoa(nch), alg.String()}
				for _, b := range d.buckets {
					row = append(row, pct(props[b]))
				}
				t.Rows = append(t.Rows, row)
			}
		}
		out = append(out, t)
	}
	return out, nil
}

// clampHist folds histogram keys above the last bucket into it (the ">=N"
// column) and keys below the first bucket into the first.
func clampHist(h map[int]int, buckets []int) map[int]int {
	if len(buckets) == 0 {
		return h
	}
	lo, hi := buckets[0], buckets[len(buckets)-1]
	out := make(map[int]int, len(buckets))
	for k, v := range h {
		switch {
		case k < lo:
			out[lo] += v
		case k > hi:
			out[hi] += v
		default:
			out[k] += v
		}
	}
	return out
}

// Fig4 reproduces Fig. 4: the distribution of transmissions per channel for
// RA vs RC under (a) centralized and (b) peer-to-peer traffic (Indriya).
func Fig4(env *Env, opt Options) ([]*Table, error) {
	return env.efficiencyFigure("Fig 4", txPerChannel, opt,
		TrialSpec{Traffic: routing.Centralized, Flows: 60, PeriodExp: [2]int{0, 2}},
		TrialSpec{Traffic: routing.PeerToPeer, Flows: 100, PeriodExp: [2]int{0, 2}})
}

// Fig5 reproduces Fig. 5: the distribution of channel-reuse hop counts for
// RA vs RC under (a) peer-to-peer and (b) centralized traffic (Indriya).
func Fig5(env *Env, opt Options) ([]*Table, error) {
	return env.efficiencyFigure("Fig 5", reuseHops, opt,
		TrialSpec{Traffic: routing.PeerToPeer, Flows: 100, PeriodExp: [2]int{0, 2}},
		TrialSpec{Traffic: routing.Centralized, Flows: 60, PeriodExp: [2]int{0, 2}})
}
