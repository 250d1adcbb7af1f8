package analysis

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wsan/internal/flow"
)

// The ref* functions are verbatim copies of DelayAnalysis and its helpers
// before the iterate-invariant terms were hoisted out of the fixed point,
// kept as the oracle the hoisted version must reproduce exactly.

func refDelayAnalysis(flows []*flow.Flow, m, attempts int) ([]DelayBound, error) {
	if m <= 0 || attempts <= 0 {
		return nil, fmt.Errorf("delay analysis: channels %d and attempts %d must be positive", m, attempts)
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("delay analysis: empty flow set")
	}
	for _, f := range flows {
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("delay analysis: %w", err)
		}
		if len(f.Route) == 0 {
			return nil, fmt.Errorf("delay analysis: flow %d has no route", f.ID)
		}
	}
	bounds := make([]DelayBound, len(flows))
	// responses[j] is R_j for already-analyzed higher-priority flows.
	responses := make([]int, len(flows))
	for i, fi := range flows {
		ci := fi.TotalAttempts(attempts)
		nodesI := refRouteNodes(fi)
		r := ci
		for {
			conflict := 0
			contention := 0
			for j := 0; j < i; j++ {
				fj := flows[j]
				cj := fj.TotalAttempts(attempts)
				// Carry-in window: releases of j that can overlap a window
				// of length r.
				instances := ceilDiv(r+responses[j], fj.Period)
				theta := instances * cj
				omega := instances * refConflictingTx(fj, nodesI, attempts)
				if omega > theta {
					omega = theta
				}
				conflict += omega
				contention += theta - omega
			}
			next := ci + conflict + ceilDiv(contention, m)
			if next == r {
				break
			}
			r = next
			if r > fi.Deadline {
				break
			}
		}
		bounds[i] = DelayBound{
			FlowID:        fi.ID,
			ResponseSlots: r,
			Schedulable:   r <= fi.Deadline,
		}
		if !bounds[i].Schedulable {
			bounds[i].ResponseSlots = -1
			// Lower-priority analysis still needs a window bound for this
			// flow; use its deadline as a conservative stand-in.
			responses[i] = fi.Deadline
			continue
		}
		responses[i] = r
	}
	return bounds, nil
}

// refRouteNodes collects the set of nodes a flow's route touches.
func refRouteNodes(f *flow.Flow) map[int]bool {
	nodes := make(map[int]bool, len(f.Route)+1)
	for _, l := range f.Route {
		nodes[l.From] = true
		nodes[l.To] = true
	}
	return nodes
}

// refConflictingTx counts flow j's per-release transmissions that share a
// node with the given node set, honoring j's per-hop budget when present.
func refConflictingTx(fj *flow.Flow, nodes map[int]bool, attempts int) int {
	count := 0
	for h, l := range fj.Route {
		if nodes[l.From] || nodes[l.To] {
			count += fj.HopAttempts(h, attempts)
		}
	}
	return count
}

// randomDelaySet draws a priority-ordered flow set over a small node pool,
// so routes share relays: 1–10 hop simple paths, periods 4–256 slots,
// deadlines anywhere in (0, period] (many tight enough to fail), and a
// per-hop 1–3 attempt budget on about half the flows.
func randomDelaySet(rng *rand.Rand, numFlows int) []*flow.Flow {
	nodes := 4 + rng.Intn(17)
	flows := make([]*flow.Flow, numFlows)
	for i := range flows {
		path := rng.Perm(nodes)[:2+rng.Intn(min(10, nodes-1))]
		period := 4 + rng.Intn(253)
		f := &flow.Flow{
			ID: i, Src: path[0], Dst: path[len(path)-1],
			Period: period, Deadline: 1 + rng.Intn(period),
		}
		for h := 0; h+1 < len(path); h++ {
			f.Route = append(f.Route, flow.Link{From: path[h], To: path[h+1]})
		}
		if rng.Intn(2) == 0 {
			for range f.Route {
				f.TxBudget = append(f.TxBudget, 1+rng.Intn(3))
			}
		}
		flows[i] = f
	}
	return flows
}

// checkDelayMatchesReference fails t unless DelayAnalysis and the reference
// agree on the error and on every bound.
func checkDelayMatchesReference(t *testing.T, flows []*flow.Flow, m, attempts int) []DelayBound {
	t.Helper()
	got, err := DelayAnalysis(flows, m, attempts)
	want, refErr := refDelayAnalysis(flows, m, attempts)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("m=%d attempts=%d: error %v, reference %v", m, attempts, err, refErr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("m=%d attempts=%d:\n got %+v\nwant %+v", m, attempts, got, want)
	}
	return got
}

// TestDelayAnalysisMatchesReference runs 2400 random flow sets (1–40 flows,
// m 1–8, attempts 1–3, budgeted and unbudgeted flows mixed) through
// DelayAnalysis and the reference. Every bound must be identical, and both
// the admitted and the deadline stand-in paths must be exercised. Every
// second set has its node IDs spread to multiples of 2^40 around zero, so
// both node numberings (offset and rank) are compared.
func TestDelayAnalysisMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	admitted, rejected := 0, 0
	for set := 0; set < 2400; set++ {
		flows := randomDelaySet(rng, 1+rng.Intn(40))
		if set%2 == 1 {
			spread := func(v int) int { return (v - 3) << 40 }
			for _, f := range flows {
				for h, l := range f.Route {
					f.Route[h] = flow.Link{From: spread(l.From), To: spread(l.To)}
				}
				f.Src, f.Dst = spread(f.Src), spread(f.Dst)
			}
		}
		bounds := checkDelayMatchesReference(t, flows, 1+rng.Intn(8), 1+rng.Intn(3))
		for _, b := range bounds {
			if b.Schedulable {
				admitted++
			} else {
				rejected++
			}
		}
	}
	if admitted == 0 || rejected == 0 {
		t.Fatalf("coverage: %d admitted and %d rejected bounds, want both", admitted, rejected)
	}
}

// FuzzDelayAnalysis decodes a flow set from the input, node IDs and all,
// and checks DelayAnalysis against the reference. After the channel and
// attempt bytes, each flow takes 5+hops bytes: hop count, period, deadline,
// a budget flag, the route's first node, then the node each hop reaches.
func FuzzDelayAnalysis(f *testing.F) {
	f.Add([]byte{3, 1, 2, 50, 40, 0, 1, 2, 3, 1, 60, 30, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 3, 3, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{7, 2, 4, 255, 200, 1, 0x80, 0x7f, 0x81, 0xff, 3, 9, 9, 0, 0x7f, 0x80, 5, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		m, attempts := 1+next()%8, 1+next()%3
		var flows []*flow.Flow
		for len(data) > 0 && len(flows) < 64 {
			hops := 1 + next()%6
			period := 1 + next()
			fl := &flow.Flow{
				ID: len(flows), Src: -1, Dst: -2,
				Period: period, Deadline: 1 + next()%period,
			}
			budgeted := next()%2 == 1
			// Signed node IDs, so negative ones reach the node numbering.
			from := int(int8(next()))
			for h := 0; h < hops; h++ {
				to := int(int8(next()))
				fl.Route = append(fl.Route, flow.Link{From: from, To: to})
				if budgeted {
					fl.TxBudget = append(fl.TxBudget, 1+(to&3)%3)
				}
				from = to
			}
			flows = append(flows, fl)
		}
		checkDelayMatchesReference(t, flows, m, attempts)
	})
}
