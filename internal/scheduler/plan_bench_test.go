package scheduler

import (
	"testing"

	"wsan/internal/topology"
)

// BenchmarkRunRCPlanPoint times one RC Run of a whole flow set at the
// paper's Fig. 6 operating point: Indriya on 5 channels, 100 peer-to-peer
// flows, with and without per-hop reliability budgets planned for a 0.99
// delivery target. txs/op is the size of the resulting schedule.
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
		name     string
		budgeted bool
	}{{"budgeted", true}, {"unbudgeted", false}} {
		b.Run(bc.name, func(b *testing.B) {
			fs := planPoint(b, tb, chs, gc, aps, 1, 100, bc.budgeted)
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
		})
	}
}
