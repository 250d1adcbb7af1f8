package analysis

import (
	"fmt"
	"slices"

	"wsan/internal/flow"
)

// This file implements a worst-case end-to-end delay bound for
// fixed-priority WirelessHART scheduling without channel reuse, in the
// style of the delay analysis the paper cites as foundational related work
// (Saifullah et al., "Real-time scheduling for WirelessHART networks" /
// "End-to-end delay analysis..."). It is a *sufficient* schedulability
// test: if the bound puts every flow within its deadline, the NR scheduler
// is guaranteed to find a schedule; the converse does not hold.
//
// A transmission of flow i can be delayed by a higher-priority flow j in
// two ways:
//
//   - transmission conflict: a transmission of j shares a node with i's
//     route, so it blocks i outright for that slot (Ω term), or
//   - channel contention: j occupies one of the m channels; i is blocked
//     only in slots where m higher-priority transmissions are active, so
//     the non-conflicting workload is divided by m (Θ term).
//
// The response time of one release of flow i is bounded by the smallest
// fixed point of
//
//	R = C_i + Σ_{j<i} Ω_j(R) + ⌈(Σ_{j<i} Θ_j(R) − Ω_j(R)) / m⌉
//
// where Θ_j(t) = ⌈(t+R_j)/P_j⌉·C_j bounds flow j's workload in any window
// of length t (with carry-in), and Ω_j(t) counts only the transmissions of
// j that conflict with i's route. Both terms use the previously computed
// response bound R_j of the higher-priority flow for the carry-in window,
// which keeps the analysis sound for constrained deadlines.

// DelayBound is the result of the analysis for one flow.
type DelayBound struct {
	FlowID int
	// ResponseSlots is the worst-case end-to-end response bound in slots;
	// -1 if the iteration diverged past the deadline (flow deemed
	// unschedulable by this test).
	ResponseSlots int
	// Schedulable reports ResponseSlots ≤ deadline.
	Schedulable bool
}

// DelayAnalysis runs the bound for every flow of a routed, priority-ordered
// (lowest ID = highest priority) flow set on m channels without channel
// reuse. attempts is the uniform number of dedicated slots per hop; flows
// carrying an explicit per-hop TxBudget contribute their budgeted slot
// counts instead, so reliability-budgeted workloads are analyzed with
// their true per-release demand.
//
// Only the carry-in instance count depends on the iterate R, so the rest
// is computed outside the fixed point: each flow's demand C_j once per
// call, and each conflict count Ω¹_ij = min(conflicting transmissions of j
// on i's route, C_j) once per analyzed flow i. Since instance counts are
// non-negative, min(n·a, n·b) = n·min(a, b), and the iteration does only
// integer arithmetic on those values. The conflict counts come from a
// per-node hop index over a dense numbering of the nodes the routes touch:
// flow i visits only the hops that share one of its route's nodes, not
// every hop of every higher-priority flow. The call makes the same few
// allocations for any set size or node IDs.
func DelayAnalysis(flows []*flow.Flow, m, attempts int) ([]DelayBound, error) {
	if m <= 0 || attempts <= 0 {
		return nil, fmt.Errorf("delay analysis: channels %d and attempts %d must be positive", m, attempts)
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("delay analysis: empty flow set")
	}
	hops := 0
	for _, f := range flows {
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("delay analysis: %w", err)
		}
		if len(f.Route) == 0 {
			return nil, fmt.Errorf("delay analysis: flow %d has no route", f.ID)
		}
		hops += len(f.Route)
	}
	n := len(flows)
	// One buffer holds the per-call integer tables. demand[j] is C_j,
	// period[j] is P_j, responses[j] is R_j of an analyzed higher-priority
	// flow, omega[j] and rest[j] = C_j − omega[j] split j's demand for the
	// flow under analysis, and ends[2h], ends[2h+1] number the endpoints of
	// the h-th hop of the concatenated routes. The node numbering sorts in
	// the last 2·hops entries; after it, they hold each hop's attempts and
	// flow index.
	buf := make([]int, 5*n+4*hops)
	demand, period, responses, omega, rest := buf[:n], buf[n:2*n], buf[2*n:3*n], buf[3*n:4*n], buf[4*n:5*n]
	ends := buf[5*n : 5*n+2*hops]
	e := 0
	for j, f := range flows {
		demand[j] = f.TotalAttempts(attempts)
		period[j] = f.Period
		for _, l := range f.Route {
			ends[e], ends[e+1] = l.From, l.To
			e += 2
		}
	}
	nodes := numberNodes(ends, buf[5*n+2*hops:])
	hopAtt, hopFlow := buf[5*n+2*hops:5*n+3*hops], buf[5*n+3*hops:]
	e = 0
	for j, f := range flows {
		for k := range f.Route {
			hopAtt[e], hopFlow[e] = f.HopAttempts(k, attempts), j
			e++
		}
	}
	// The hop index: nodeHops[first[v]:first[v+1]] lists the hops touching
	// node v in ascending order, so in flow order, and a hop with both ends
	// at v twice. hopSeen and nodeSeen hold i+1 once flow i has counted the
	// hop or walked the node.
	idx := make([]int32, 2*nodes+1+3*hops)
	first, nodeHops := idx[:nodes+1], idx[nodes+1:nodes+1+2*hops]
	hopSeen, nodeSeen := idx[nodes+1+2*hops:nodes+1+3*hops], idx[nodes+1+3*hops:]
	for _, v := range ends {
		first[v]++
	}
	for v := 1; v < nodes; v++ {
		first[v] += first[v-1]
	}
	first[nodes] = int32(2 * hops)
	// A backward pass fills each node's range from its end, which leaves
	// first[v] at the range's start and the hops in ascending order.
	for p := len(ends) - 1; p >= 0; p-- {
		v := ends[p]
		first[v]--
		nodeHops[first[v]] = int32(p / 2)
	}
	bounds := make([]DelayBound, n)
	firstHop := 0
	for i, fi := range flows {
		stamp := int32(i + 1)
		clear(omega[:i])
		for _, v := range ends[2*firstHop : 2*(firstHop+len(fi.Route))] {
			if nodeSeen[v] == stamp {
				continue
			}
			nodeSeen[v] = stamp
			for _, h := range nodeHops[first[v]:first[v+1]] {
				if int(h) >= firstHop {
					break
				}
				if hopSeen[h] != stamp {
					hopSeen[h] = stamp
					omega[hopFlow[h]] += hopAtt[h]
				}
			}
		}
		firstHop += len(fi.Route)
		for j := range omega[:i] {
			omega[j] = min(omega[j], demand[j])
			rest[j] = demand[j] - omega[j]
		}
		ci := demand[i]
		r := ci
		for {
			conflict := 0
			contention := 0
			for j := 0; j < i; j++ {
				// Carry-in window: releases of j that can overlap a window
				// of length r.
				instances := ceilDiv(r+responses[j], period[j])
				conflict += instances * omega[j]
				contention += instances * rest[j]
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

// numberNodes rewrites the node IDs in ends, in place, to dense numbers in
// [0, k) and returns k ≤ len(ends), so no table is ever sized by an ID
// value. Negative, huge or scattered IDs are numbered by their rank among
// the distinct IDs, sorted in scratch (len(ends) long). IDs that span fewer
// than len(ends) values, as testbed node IDs do, are numbered by their
// offset from the smallest instead: that skips the sort, about a third of a
// rank-only call on the Fig. 6 sets (DESIGN.md §10 has the measurements).
func numberNodes(ends, scratch []int) int {
	lo, hi := slices.Min(ends), slices.Max(ends)
	// The unsigned difference is exact even where hi−lo overflows an int.
	if span := uint(hi) - uint(lo); span < uint(len(ends)) {
		for e := range ends {
			ends[e] -= lo
		}
		return int(span) + 1
	}
	ids := scratch[:copy(scratch, ends)]
	slices.Sort(ids)
	ids = slices.Compact(ids)
	for e, id := range ends {
		ends[e], _ = slices.BinarySearch(ids, id)
	}
	return len(ids)
}

// AllSchedulable reports whether the analysis admits the whole set.
func AllSchedulable(bounds []DelayBound) bool {
	for _, b := range bounds {
		if !b.Schedulable {
			return false
		}
	}
	return true
}

func ceilDiv(a, b int) int {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
