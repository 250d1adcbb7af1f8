package scheduler

import (
	"testing"

	"wsan/internal/obs"
	"wsan/internal/topology"
)

// BenchmarkRunRCPlanPoint times one RC Run of a whole flow set at the
// paper's Fig. 6 operating point: Indriya on 5 channels, 100 peer-to-peer
// flows, with and without per-hop reliability budgets planned for a 0.99
// delivery target. The long-periods case stretches the periods to
// 2^0–2^6 s (a 6400-slot hyperperiod, as a daemon request with
// maxPeriodExp 6 asks), so Eq. 1's windows span tens of bitset words.
// txs/op is the size of the resulting schedule; memo_misses/op is the
// index layer's reuse-distance work per Run.
func BenchmarkRunRCPlanPoint(b *testing.B) {
	tb, err := topology.Indriya(1)
	if err != nil {
		b.Fatal(err)
	}
	const nch = 5
	chs := topology.Channels(nch)
	gc, err := tb.CommGraph(chs, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	gr, err := tb.ReuseGraph(chs)
	if err != nil {
		b.Fatal(err)
	}
	aps := topology.AccessPoints(gc, 2)
	cfg := Config{Algorithm: RC, NumChannels: nch, RhoT: 2, HopGR: gr.AllPairsHop(), Retransmit: true}
	for _, bc := range []struct {
		name         string
		maxPeriodExp int
		budgeted     bool
	}{{"budgeted", 2, true}, {"unbudgeted", 2, false}, {"long-periods", 6, true}} {
		b.Run(bc.name, func(b *testing.B) {
			fs := planPoint(b, tb, chs, gc, aps, 1, 100, bc.maxPeriodExp, bc.budgeted)
			reg := obs.NewRegistry()
			cfg := cfg
			cfg.Metrics = reg
			var res *Result
			var err error
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, err = Run(fs, cfg); err != nil {
					b.Fatal(err)
				}
			}
			if !res.Schedulable {
				b.Fatal("the plan point is unschedulable")
			}
			b.ReportMetric(float64(res.Schedule.Len()), "txs/op")
			reportIndexWork(b, reg)
		})
	}
}

// reportIndexWork reports the index layer's reuse-distance fills per op,
// read from the benchmark's sink, so a cut in that work shows on any
// machine, even at one iteration.
func reportIndexWork(b *testing.B, reg *obs.Registry) {
	b.ReportMetric(float64(reg.CounterValue("sched.index.reuse_memo_misses"))/float64(b.N), "memo_misses/op")
}
