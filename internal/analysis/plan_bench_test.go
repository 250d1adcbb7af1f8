package analysis

import (
	"fmt"
	"math/rand"
	"testing"

	"wsan/internal/budget"
	"wsan/internal/flow"
	"wsan/internal/graph"
	"wsan/internal/routing"
	"wsan/internal/schedule"
	"wsan/internal/scheduler"
	"wsan/internal/topology"
)

// planSets runs fn on flow sets at the paper's Fig. 6 operating point, the
// shape of the plan-100f benchmark workload: Indriya on 5 channels, 100 and
// 120 peer-to-peer flows with periods of 2^0–2^2 s, with and without
// per-hop budgets planned for a 0.99 delivery target, each with its RC
// schedule.
func planSets(b *testing.B, fn func(b *testing.B, fs []*flow.Flow, s *schedule.Schedule)) {
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
	cfg := scheduler.Config{Algorithm: scheduler.RC, NumChannels: nch, RhoT: 2, HopGR: gr.AllPairsHop(), Retransmit: true}
	linkPRR := func(l flow.Link) float64 {
		sum := 0.0
		for _, ch := range chs {
			sum += tb.PRR(l.From, l.To, ch)
		}
		return sum / float64(len(chs))
	}
	for _, n := range []int{100, 120} {
		for _, budgeted := range []bool{false, true} {
			name := fmt.Sprintf("flows=%d/unbudgeted", n)
			if budgeted {
				name = fmt.Sprintf("flows=%d/budgeted", n)
			}
			fs, s := planSet(b, gc, aps, linkPRR, cfg, n, budgeted)
			b.Run(name, func(b *testing.B) { fn(b, fs, s) })
		}
	}
}

// planSet draws the first set of seeds 1..50 that RC schedules.
func planSet(b *testing.B, gc *graph.Graph, aps []int, linkPRR func(flow.Link) float64,
	cfg scheduler.Config, n int, budgeted bool) ([]*flow.Flow, *schedule.Schedule) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs, err := flow.Generate(rng, gc, flow.GenConfig{NumFlows: n, MinPeriodExp: 0, MaxPeriodExp: 2, Exclude: aps})
		if err != nil {
			b.Fatal(err)
		}
		if err := routing.Assign(fs, gc, routing.Config{Traffic: routing.PeerToPeer, APs: aps}); err != nil {
			b.Fatal(err)
		}
		if budgeted {
			for _, f := range fs {
				f.TargetPDR = 0.99
			}
			if _, err := budget.Apply(fs, linkPRR, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
		res, err := scheduler.Run(fs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Schedulable {
			return fs, res.Schedule
		}
	}
	b.Fatalf("no seed in 1..50 gives an RC-schedulable set of %d flows", n)
	return nil, nil
}

// BenchmarkDelayAnalysis times one DelayAnalysis call at the plan point,
// with two attempts per unbudgeted hop as plan-100f uses.
func BenchmarkDelayAnalysis(b *testing.B) {
	planSets(b, func(b *testing.B, fs []*flow.Flow, _ *schedule.Schedule) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := DelayAnalysis(fs, 5, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLatencies times one Latencies call on the set's RC schedule;
// txs/op is the schedule's size.
func BenchmarkLatencies(b *testing.B) {
	planSets(b, func(b *testing.B, fs []*flow.Flow, s *schedule.Schedule) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Latencies(fs, s); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(s.Len()), "txs/op")
	})
}
