package scheduler

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wsan/internal/flow"
	"wsan/internal/schedule"
)

// metaNodes is the size of the metamorphic churn's ring network: every
// flow has a second route, the other way around.
const metaNodes = 10

// metaChurn is a Run-built grid driven by seeded add, remove, reroute and
// batch ops. Flow 0 has the longest period and is never an op's target, so
// the slotframe stays the workload's hyperperiod and a Run of the current
// workload is comparable with the grid. Ops target flows with IDs from
// pivot up and add flows with IDs from pivot up, so the flows below pivot
// stay below every op ID.
type metaChurn struct {
	rng   *rand.Rand
	cfg   Config
	sched *schedule.Schedule
	work  []*flow.Flow
	pivot int
}

// newMetaChurn builds a schedulable base of 12 flows with Run.
func newMetaChurn(seed int64, alg Algorithm) (*metaChurn, error) {
	_, hop := ringGraph(metaNodes)
	m := &metaChurn{rng: rand.New(rand.NewSource(seed)),
		cfg: Config{Algorithm: alg, NumChannels: 3, RhoT: 2, HopGR: hop, Retransmit: seed%2 == 0}}
	m.pivot = 5 + m.rng.Intn(40)
	for try := 0; try < 50; try++ {
		work := []*flow.Flow{m.newFlow(0, 100)}
		for _, id := range m.rng.Perm(99)[:11] {
			work = append(work, m.newFlow(id+1, 0))
		}
		slices.SortFunc(work, func(a, b *flow.Flow) int { return cmp.Compare(a.ID, b.ID) })
		res, err := Run(work, m.cfg)
		if err != nil {
			return nil, err
		}
		if res.Schedulable {
			m.sched, m.work = res.Schedule, work
			return m, nil
		}
	}
	return nil, fmt.Errorf("seed %d: no schedulable base", seed)
}

// newFlow draws a flow of one to three hops along the ring; period 0 picks
// 25, 50 or 100 slots.
func (m *metaChurn) newFlow(id, period int) *flow.Flow {
	if period == 0 {
		period = []int{25, 50, 100}[m.rng.Intn(3)]
	}
	src, hops, dir := m.rng.Intn(metaNodes), 1+m.rng.Intn(3), 1
	if m.rng.Intn(2) == 0 {
		dir = metaNodes - 1
	}
	nodes := make([]int, hops+1)
	for i := range nodes {
		nodes[i] = (src + i*dir) % metaNodes
	}
	f := &flow.Flow{ID: id, Src: nodes[0], Dst: nodes[hops], Period: period}
	minD := hops * m.cfg.attempts()
	f.Deadline = minD + m.rng.Intn(period-minD+1)
	routeThrough(f, nodes...)
	return f
}

// otherWay routes f the other way around the ring.
func otherWay(f *flow.Flow) []flow.Link {
	step := metaNodes - 1 // f runs clockwise: go back
	if f.Route[0].To != (f.Src+1)%metaNodes {
		step = 1
	}
	var route []flow.Link
	for u := f.Src; u != f.Dst; u = (u + step) % metaNodes {
		route = append(route, flow.Link{From: u, To: (u + step) % metaNodes})
	}
	return route
}

// nextOps draws one op, or a batch of two to four with distinct targets.
// Each add's flow ID is new; targets are listed flows from pivot up.
func (m *metaChurn) nextOps() []BatchOp {
	n := 1
	if m.rng.Intn(4) == 0 {
		n = 2 + m.rng.Intn(3)
	}
	used := map[int]bool{}
	for _, f := range m.work {
		used[f.ID] = true
	}
	var targets []*flow.Flow
	for _, f := range m.work {
		if f.ID >= m.pivot {
			targets = append(targets, f)
		}
	}
	var ops []BatchOp
	for len(ops) < n {
		switch kind := m.rng.Intn(3); {
		case kind == 0 || len(targets) == 0:
			id := m.pivot + m.rng.Intn(130-m.pivot)
			if used[id] {
				continue
			}
			used[id] = true
			ops = append(ops, BatchOp{Kind: BatchAdd, Flow: m.newFlow(id, 0)})
		default:
			k := m.rng.Intn(len(targets))
			f := targets[k]
			targets = slices.Delete(targets, k, k+1)
			if kind == 1 {
				ops = append(ops, BatchOp{Kind: BatchRemove, FlowID: f.ID})
			} else {
				ops = append(ops, BatchOp{Kind: BatchReroute, FlowID: f.ID, Route: otherWay(f)})
			}
		}
	}
	return ops
}

// opID is the ID of the flow op adds or targets.
func opID(op BatchOp) int {
	if op.Kind == BatchAdd {
		return op.Flow.ID
	}
	return op.FlowID
}

// placements returns flowID's transmissions on s in (instance, hop,
// attempt) order.
func placements(s *schedule.Schedule, flowID int) []schedule.Tx {
	txs := s.FlowTxs(flowID, nil)
	slices.SortFunc(txs, func(a, b schedule.Tx) int {
		return cmp.Or(cmp.Compare(a.Instance, b.Instance), cmp.Compare(a.Hop, b.Hop), cmp.Compare(a.Attempt, b.Attempt))
	})
	return txs
}

// TestDeltaPinnedPrefixMatchesRun is the delta engine's metamorphic check
// against the from-scratch scheduler. Run places flows in priority order,
// so a flow's placement depends only on higher-priority flows. A delta op
// never moves a flow of higher priority than the flow it places (the
// cascade evicts only lower-criticality flows, and the full rung is Run
// itself). So, starting from a Run-built grid, after every add, remove,
// reroute or batch — successful or rolled back — every flow whose ID is
// below the lowest op ID so far must hold exactly the placements a Run of
// the current workload gives it. NR, RA and RC grids on a ring are churned
// until every rung of the ladder has been reached.
func TestDeltaPinnedPrefixMatchesRun(t *testing.T) {
	seeds, steps := 20, 30
	if testing.Short() {
		seeds = 6
	}
	var rungs [4]int
	var failed, checked int
	for _, alg := range []Algorithm{NR, RA, RC} {
		for seed := int64(0); seed < int64(seeds); seed++ {
			m, err := newMetaChurn(seed, alg)
			if err != nil {
				t.Fatal(err)
			}
			below := 1 << 30
			for step := 0; step < steps; step++ {
				ops := m.nextOps()
				for _, op := range ops {
					below = min(below, opID(op))
				}
				res, err := ApplyDeltaBatch(m.sched, m.work, ops, m.cfg)
				if err != nil {
					t.Fatalf("%v seed %d step %d: %v", alg, seed, step, err)
				}
				if res.Schedulable {
					m.work = res.Flows
					for _, fb := range res.Fallbacks {
						rungs[fb]++
					}
				} else {
					failed++
				}
				full, err := Run(m.work, m.cfg)
				if err != nil {
					t.Fatalf("%v seed %d step %d: Run: %v", alg, seed, step, err)
				}
				for _, g := range m.work {
					if g.ID >= below {
						break
					}
					got, want := placements(m.sched, g.ID), placements(full.Schedule, g.ID)
					if len(want) == 0 || !slices.Equal(got, want) {
						t.Fatalf("%v seed %d step %d (ops %+v, fallback %v): flow %d, below every op ID %d, holds\n%v\nRun places it at\n%v",
							alg, seed, step, ops, res.Fallback, g.ID, below, got, want)
					}
					checked++
				}
			}
		}
	}
	t.Logf("rungs none/evict/cascade/full %v, %d ops rolled back, %d pinned placements checked", rungs, failed, checked)
	if rungs[FallbackNone] == 0 || rungs[FallbackEvict]+rungs[FallbackCascade] == 0 || rungs[FallbackFull] == 0 ||
		failed == 0 || checked < 100 {
		t.Fatalf("weak coverage: rungs none/evict/cascade/full %v, %d ops rolled back, %d pinned placements checked",
			rungs, failed, checked)
	}
}
