package scheduler

import (
	"math/rand"
	"slices"
	"testing"

	"wsan/internal/flow"
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
}

// newChurnGrid admits flows from a 1000-flow pool through AddFlowDelta
// until 500 are scheduled.
func newChurnGrid(b *testing.B) *churnGrid {
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
	g := &churnGrid{sched: sched, cfg: Config{Algorithm: RC, NumChannels: channels, RhoT: 2, HopGR: gr.AllPairsHop()}}
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
func (g *churnGrid) add(b *testing.B, f *flow.Flow) {
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
func (g *churnGrid) remove(b *testing.B, k int) *flow.Flow {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := g.remove(b, i%len(g.active))
		b.StartTimer()
		g.add(b, f)
	}
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
