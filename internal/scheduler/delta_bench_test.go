package scheduler

import (
	"math/rand"
	"slices"
	"testing"

	"wsan/internal/flow"
	"wsan/internal/graph"
	"wsan/internal/obs"
	"wsan/internal/routing"
	"wsan/internal/schedule"
	"wsan/internal/topology"
)

// churnGrid is a live grid at the churn operating point: Indriya on 8
// channels, RC at ρ_t = 2, periods 2^2–2^4 s and 500 admitted flows.
type churnGrid struct {
	sched  *schedule.Schedule
	active []*flow.Flow // ID order, as the delta APIs require
	cfg    Config
	gc     *graph.Graph
}

// newChurnGrid admits flows from a 1000-flow pool through AddFlowDelta
// until 500 are scheduled.
func newChurnGrid(b testing.TB) *churnGrid {
	b.Helper()
	tb, err := topology.Indriya(1)
	if err != nil {
		b.Fatal(err)
	}
	const channels = 8
	chs := topology.Channels(channels)
	gc, err := tb.CommGraph(chs, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	gr, err := tb.ReuseGraph(chs)
	if err != nil {
		b.Fatal(err)
	}
	aps := topology.AccessPoints(gc, 2)
	pool, err := flow.Generate(rand.New(rand.NewSource(1)), gc, flow.GenConfig{
		NumFlows: 1000, MinPeriodExp: 2, MaxPeriodExp: 4, Exclude: aps,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := routing.Assign(pool, gc, routing.Config{Traffic: routing.PeerToPeer, APs: aps}); err != nil {
		b.Fatal(err)
	}
	hyper, err := flow.Hyperperiod(pool)
	if err != nil {
		b.Fatal(err)
	}
	sched, err := schedule.New(hyper, channels, gc.Len())
	if err != nil {
		b.Fatal(err)
	}
	g := &churnGrid{sched: sched, cfg: Config{Algorithm: RC, NumChannels: channels, RhoT: 2, HopGR: gr.AllPairsHop()}, gc: gc}
	for _, f := range pool {
		if len(g.active) == 500 {
			break
		}
		g.add(b, f)
	}
	if len(g.active) < 500 {
		b.Fatalf("only %d of 1000 flows admitted", len(g.active))
	}
	return g
}

// add admits f into the grid and, when the ladder places it, into active.
func (g *churnGrid) add(b testing.TB, f *flow.Flow) {
	res, err := AddFlowDelta(g.sched, g.active, f, g.cfg)
	if err != nil {
		b.Fatal(err)
	}
	if res.Schedulable {
		at, _ := slices.BinarySearchFunc(g.active, f.ID, func(a *flow.Flow, id int) int { return a.ID - id })
		g.active = slices.Insert(g.active, at, f)
	}
}

// remove retires active[k] from the grid and returns it.
func (g *churnGrid) remove(b testing.TB, k int) *flow.Flow {
	f := g.active[k]
	if _, err := RemoveFlowDelta(g.sched, f.ID, nil); err != nil {
		b.Fatal(err)
	}
	g.active = slices.Delete(g.active, k, k+1)
	return f
}

// BenchmarkAddFlowDelta times one AddFlowDelta into the 500-flow grid: each
// iteration retires an active flow, untimed, and times its re-admission.
func BenchmarkAddFlowDelta(b *testing.B) {
	g := newChurnGrid(b)
	reg := obs.NewRegistry()
	g.cfg.Metrics = reg
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := g.remove(b, i%len(g.active))
		b.StartTimer()
		g.add(b, f)
	}
	b.StopTimer()
	reportIndexWork(b, reg)
}

// BenchmarkRemoveFlowDelta times one RemoveFlowDelta from the 500-flow
// grid: each iteration retires an active flow and re-admits it, untimed.
func BenchmarkRemoveFlowDelta(b *testing.B) {
	g := newChurnGrid(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := g.remove(b, i%len(g.active))
		b.StopTimer()
		g.add(b, f)
		b.StartTimer()
	}
}

// detour returns f's minimum-hop route around node, or nil when there is
// none or it is f's current route.
func (g *churnGrid) detour(f *flow.Flow, node int) []flow.Link {
	path := g.gc.ShortestPathAvoiding(f.Src, f.Dst, []int{node})
	if path == nil {
		return nil
	}
	if route := routing.PathLinks(path); !slices.Equal(route, f.Route) {
		return route
	}
	return nil
}

// undo rolls a successful delta back, so every iteration starts from the
// same grid and workload.
func (g *churnGrid) undo(b *testing.B, res *DeltaResult) {
	if !res.Schedulable {
		return
	}
	if err := schedule.Apply(g.sched, schedule.Invert(res.Changes)); err != nil {
		b.Fatal(err)
	}
}

// rungCounter tallies the repair-ladder rungs a benchmark's deltas reached.
type rungCounter [4]int

// report adds each descending rung's count per iteration to the benchmark
// output, so a run shows whether the ladder was reached at all.
func (c *rungCounter) report(b *testing.B) {
	for fb := FallbackEvict; fb <= FallbackFull; fb++ {
		b.ReportMetric(float64(c[fb])/float64(b.N), fb.String()+"/op")
	}
}

// BenchmarkRerouteFlowDelta times one RerouteFlowDelta on the 500-flow grid:
// each multi-hop flow in turn loses its first relay and is detoured around
// it; the reroute is rolled back, untimed.
func BenchmarkRerouteFlowDelta(b *testing.B) {
	g := newChurnGrid(b)
	type reroute struct {
		id    int
		route []flow.Link
	}
	var moves []reroute
	for _, f := range g.active {
		if len(f.Route) < 2 {
			continue
		}
		if route := g.detour(f, f.Route[0].To); route != nil {
			moves = append(moves, reroute{f.ID, route})
		}
	}
	var rungs rungCounter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := moves[i%len(moves)]
		res, err := RerouteFlowDelta(g.sched, g.active, m.id, m.route, g.cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		rungs[res.Fallback]++
		g.undo(b, res)
		b.StartTimer()
	}
	rungs.report(b)
}

// BenchmarkApplyDeltaBatch times one node-fault batch on the 500-flow grid:
// each node in turn crashes and up to eight of the flows relaying through
// it are detoured around it in one ApplyDeltaBatch, which is rolled back,
// untimed. Node faults are what drives churn onto the cascade rung; the
// reported evict/op and cascade/op count the batches that reached it.
func BenchmarkApplyDeltaBatch(b *testing.B) {
	g := newChurnGrid(b)
	var batches [][]BatchOp
	for node := 0; node < g.gc.Len(); node++ {
		var ops []BatchOp
		for _, f := range g.active {
			if len(ops) == 8 {
				break
			}
			if f.Src == node || f.Dst == node || !slices.ContainsFunc(f.Route, func(l flow.Link) bool { return l.From == node || l.To == node }) {
				continue
			}
			if route := g.detour(f, node); route != nil {
				ops = append(ops, BatchOp{Kind: BatchReroute, FlowID: f.ID, Route: route})
			}
		}
		if len(ops) > 0 {
			batches = append(batches, ops)
		}
	}
	var rungs rungCounter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ApplyDeltaBatch(g.sched, g.active, batches[i%len(batches)], g.cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		rungs[res.Fallback]++
		g.undo(b, &res.DeltaResult)
		b.StartTimer()
	}
	rungs.report(b)
}
