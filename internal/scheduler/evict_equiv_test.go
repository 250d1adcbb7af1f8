package scheduler

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"wsan/internal/flow"
	"wsan/internal/schedule"
)

// refEvictCand is the reference ranking's candidate.
type refEvictCand struct {
	id    int
	score int
}

// refEvictionCandidates is the eviction ranking as it was before it walked
// the listed workload: one pass over every transmission of the grid with a
// map tally, kept verbatim as the reference the per-flow ranking must
// reproduce.
func refEvictionCandidates(sched *schedule.Schedule, f *flow.Flow, byID map[int]*flow.Flow) []refEvictCand {
	onRoute := make(map[int]bool, len(f.Route)+1)
	for _, l := range f.Route {
		onRoute[l.From] = true
		onRoute[l.To] = true
	}
	score := make(map[int]int)
	for _, tx := range sched.Txs() {
		if tx.FlowID <= f.ID {
			continue // equal or higher criticality: never evicted
		}
		if _, known := byID[tx.FlowID]; !known {
			continue // cannot re-place a flow we do not know
		}
		rel := tx.Slot - f.Phase
		if rel < 0 || rel%f.Period >= f.Deadline {
			continue // outside every instance window of f
		}
		s := 1
		if onRoute[tx.Link.From] || onRoute[tx.Link.To] {
			s += 8
		}
		score[tx.FlowID] += s
	}
	cands := make([]refEvictCand, 0, len(score))
	for id, s := range score {
		cands = append(cands, refEvictCand{id: id, score: s})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].id > cands[j].id
	})
	return cands
}

// equivNodes is the node space of the ranking-equivalence grids.
const equivNodes = 8

// randRoute routes src to dst through up to two random relays.
func randRoute(rng *rand.Rand, src, dst int) []flow.Link {
	nodes := []int{src}
	for range rng.Intn(3) {
		if v := rng.Intn(equivNodes); !slices.Contains(nodes, v) && v != dst {
			nodes = append(nodes, v)
		}
	}
	var route []flow.Link
	for i, u := range nodes {
		v := dst
		if i+1 < len(nodes) {
			v = nodes[i+1]
		}
		route = append(route, flow.Link{From: u, To: v})
	}
	return route
}

// randEquivFlow draws a flow with a random route and timing: a period that
// divides frame, a deadline up to the period and, half the time, a phase
// that keeps the window inside the period.
func randEquivFlow(rng *rand.Rand, id, frame int) *flow.Flow {
	src := rng.Intn(equivNodes)
	dst := (src + 1 + rng.Intn(equivNodes-1)) % equivNodes
	period := frame >> rng.Intn(3)
	f := &flow.Flow{ID: id, Src: src, Dst: dst, Period: period, Deadline: 1 + rng.Intn(period)}
	if rng.Intn(2) == 0 && f.Deadline < period {
		f.Phase = rng.Intn(period - f.Deadline + 1)
	}
	f.Route = randRoute(rng, src, dst)
	return f
}

// TestEvictionCandidatesMatchReference requires the per-flow ranking to
// rank exactly as the grid-wide reference — the same flows, scores and
// order — on random grids. The grids hold flows the workload does not list,
// flows with a phase and with deadlines short of their periods; some
// workloads are empty, and some queries are a listed flow's rerouted copy,
// which shares its ID with the listed original. One deltaOp answers every
// query of a grid, so its reused route marks must not leak between them.
func TestEvictionCandidatesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	_, hop := ringGraph(equivNodes)
	var ranked, unlisted, empty, copies int
	for trial := 0; trial < 400; trial++ {
		frame := []int{8, 16, 32}[rng.Intn(3)]
		cfg := Config{Algorithm: []Algorithm{NR, RA, RC}[rng.Intn(3)], NumChannels: 1 + rng.Intn(3), RhoT: 2, HopGR: hop}
		sched, err := schedule.New(frame, cfg.NumChannels, equivNodes)
		if err != nil {
			t.Fatal(err)
		}
		var active []*flow.Flow
		for _, id := range rng.Perm(40)[:14] {
			f := randEquivFlow(rng, id, frame)
			res, err := AddFlowDelta(sched, active, f, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Schedulable {
				active = setFlow(active, f.ID, f)
			}
		}
		var work []*flow.Flow
		if trial%5 != 0 {
			for _, f := range active {
				if rng.Intn(3) > 0 {
					work = append(work, f)
				}
			}
		}
		if len(work) == 0 {
			empty++
		}
		if len(work) < len(active) {
			unlisted++
		}
		d := newDeltaOp(sched, cfg, work)
		byID := flowsByID(work)
		for q := 0; q < 4; q++ {
			g := randEquivFlow(rng, rng.Intn(40), frame)
			if q%2 == 1 && len(work) > 0 {
				m := *work[rng.Intn(len(work))]
				m.Route = randRoute(rng, m.Src, m.Dst)
				g = &m
				copies++
			}
			got := d.evictionCandidates(g)
			want := refEvictionCandidates(sched, g, byID)
			gotIDs := make([]refEvictCand, len(got))
			for i, c := range got {
				if c.f != byID[c.f.ID] {
					t.Fatalf("trial %d query %d: candidate %d is not the listed flow", trial, q, c.f.ID)
				}
				gotIDs[i] = refEvictCand{id: c.f.ID, score: c.score}
			}
			if len(want) == 0 {
				want = nil
			}
			if len(gotIDs) == 0 {
				gotIDs = nil
			}
			if !reflect.DeepEqual(gotIDs, want) {
				t.Fatalf("trial %d query %d (flow %d on %v, phase %d, period %d, deadline %d):\n got %v\nwant %v",
					trial, q, g.ID, g.Route, g.Phase, g.Period, g.Deadline, gotIDs, want)
			}
			ranked += len(got)
		}
	}
	if ranked == 0 || unlisted == 0 || empty == 0 || copies == 0 {
		t.Fatalf("weak coverage: %d candidates ranked, %d grids with unlisted flows, %d empty workloads, %d rerouted copies",
			ranked, unlisted, empty, copies)
	}
}

// TestCascadeRejectsDisorderedWorkload: the ranking walks the workload, so
// a duplicated flow would be evicted and re-placed twice. A cascade told a
// workload whose IDs do not strictly ascend must fail with DecodeWorkload's
// wording and leave the grid as it was.
func TestCascadeRejectsDisorderedWorkload(t *testing.T) {
	for _, tc := range []struct {
		name  string
		order func(x, b, c *flow.Flow) []*flow.Flow
		want  string
	}{
		{"duplicate", func(x, b, c *flow.Flow) []*flow.Flow { return []*flow.Flow{x, b, b, c} },
			"workload flow at position 2 has ID 10 after ID 10 (priority order broken)"},
		{"out of order", func(x, b, c *flow.Flow) []*flow.Flow { return []*flow.Flow{x, c, b} },
			"workload flow at position 2 has ID 10 after ID 20 (priority order broken)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched, flows, cfg := rerouteCascadeBase(t, nil)
			before := canonicalBytes(t, sched)
			work := tc.order(flows[0], flows[1], flows[2])
			route := []flow.Link{{From: 0, To: 3}, {From: 3, To: 1}}
			_, err := RerouteFlowDelta(sched, work, flows[0].ID, route, cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			if !reflect.DeepEqual(canonicalBytes(t, sched), before) {
				t.Fatal("rejected cascade changed the grid")
			}
			// The same reroute told the ordered workload reaches the cascade.
			res, err := RerouteFlowDelta(sched, flows, flows[0].ID, route, cfg)
			if err != nil || res.Fallback != FallbackCascade {
				t.Fatalf("ordered workload: fallback %v, err %v; want the cascade", res.Fallback, err)
			}
		})
	}
}
