package manage

// This file holds the graceful-degradation machinery of the manage loop:
// inferring crashed nodes from observed link statistics, rerouting flows
// around them, and blacklisting channels under sustained external
// interference. Everything here works from the observation Result only —
// the loop never peeks at fault-scenario ground truth, so the same code
// path handles real deployments.

import (
	"fmt"
	"sort"

	"wsan/internal/flow"
	"wsan/internal/netsim"
	"wsan/internal/obs"
	"wsan/internal/routing"
	"wsan/internal/schedule"
	"wsan/internal/scheduler"
	"wsan/internal/topology"
)

// Health classifies the network at the end of a manage iteration.
type Health int

const (
	// Healthy: every flow meets the PRR target and no link is degraded.
	Healthy Health = iota
	// Degraded: at least one flow misses the target or a link is degraded.
	Degraded
	// Recovered: healthy now, after at least one earlier degraded iteration.
	Recovered
)

// String implements fmt.Stringer.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Recovered:
		return "recovered"
	default:
		return fmt.Sprintf("Health(%d)", int(h))
	}
}

// suspectMinAttempts is the inbound-attempt evidence required before a node
// is inferred crashed. Too low and one unlucky window condemns a live node.
const suspectMinAttempts = 10

// degradedFlowIDs returns the IDs (sorted) of flows whose end-to-end PDR in
// this observation window fell below the PRR target.
func degradedFlowIDs(flows []*flow.Flow, res *netsim.Result, prrT float64) []int {
	var out []int
	for _, f := range flows {
		if res.PDR(f.ID) < prrT {
			out = append(out, f.ID)
		}
	}
	sort.Ints(out)
	return out
}

// suspectCrashedNodes infers crashed nodes from the window's link
// statistics: a node is suspect when the network aimed plenty of traffic at
// it and not a single transmission touching it — inbound or outbound —
// succeeded. A live node behind one blacked-out link still answers probes on
// its other links, so enabling ProbeEverySlots sharpens this inference.
func suspectCrashedNodes(res *netsim.Result) []int {
	inAtt := make(map[int]int)
	succ := make(map[int]int)
	for link, epochs := range res.LinkEpochs {
		var att, ok int
		for _, ep := range epochs {
			att += ep.Reuse.Attempts + ep.CF.Attempts
			ok += ep.Reuse.Successes + ep.CF.Successes
		}
		inAtt[link.To] += att
		// A success proves both endpoints alive.
		succ[link.From] += ok
		succ[link.To] += ok
	}
	var out []int
	for node, att := range inAtt {
		if att >= suspectMinAttempts && succ[node] == 0 {
			out = append(out, node)
		}
	}
	sort.Ints(out)
	return out
}

// rerouteAround moves every flow whose route crosses a suspect node onto a
// shortest path that avoids all suspects, re-placing only that flow's
// transmissions through the delta scheduler (scheduler.RerouteFlowDelta):
// unaffected flows stay pinned, and on a collision the scheduler descends
// its eviction → full-reschedule repair ladder before giving up. Placements
// use exclusive cells (NR semantics), which are valid under any reuse
// policy the original schedule was built with. Flows whose own endpoints
// are suspect cannot be saved and are left untouched (they surface as
// degraded flows). A flow whose new route cannot be placed keeps its old
// route and schedule. Returns the number of flows successfully rerouted.
func rerouteAround(tb *topology.Testbed, channels []int, prrT float64,
	flows []*flow.Flow, sched *schedule.Schedule, suspects []int, mets obs.Sink) (int, error) {
	down := make(map[int]bool, len(suspects))
	for _, n := range suspects {
		down[n] = true
	}
	g, err := tb.CommGraph(channels, prrT)
	if err != nil {
		return 0, err
	}
	// Shortest paths on the graph without the suspects route around them.
	g = g.Without(suspects)
	// Preserve the retry depth the schedule gives unbudgeted flows; a
	// budgeted flow is placed at its own budget.
	place := scheduler.Config{
		Algorithm:   scheduler.NR,
		NumChannels: sched.NumOffsets(),
		Retransmit:  scheduler.RetryDepth(sched, flows) > 1,
		Metrics:     mets,
	}
	rerouted := 0
	for _, f := range flows {
		crosses := false
		for _, l := range f.Route {
			if down[l.From] || down[l.To] {
				crosses = true
				break
			}
		}
		if !crosses || down[f.Src] || down[f.Dst] {
			continue
		}
		path := g.ShortestPathHop(f.Src, f.Dst)
		if path == nil {
			continue // no detour exists; the flow stays degraded
		}
		route := routing.PathLinks(path)
		res, err := scheduler.RerouteFlowDelta(sched, flows, f.ID, route, place)
		if err != nil {
			return rerouted, fmt.Errorf("manage: reroute flow %d: %w", f.ID, err)
		}
		if res.Schedulable {
			// Keep the flow's record in step with what was placed, refitted
			// budget included: an old-length budget would fail validation
			// on the flow's next delta operation.
			f.SetRoute(route)
			rerouted++
		}
	}
	return rerouted, nil
}

// blacklistChannels finds in-use physical channels whose failure rate this
// window is both absolutely high and far above the cleanest channel — the
// signature of narrowband interference, as opposed to a crash or fade that
// hurts every channel alike (TSCH hopping spreads those uniformly). Each
// condemned channel is replaced in the hopping list by the lowest-numbered
// channel never used before (tracked in used), changing only the hopping
// sequence, never the schedule. Returns the updated list and the channels
// removed, both deterministic.
func blacklistChannels(channels []int, res *netsim.Result,
	minAttempts int64, rateT float64, used map[int]bool) ([]int, []int) {
	inUse := make(map[int]bool, len(channels))
	for _, ch := range channels {
		inUse[ch] = true
	}
	// The cleanest well-observed channel is the contrast reference: without
	// one, uniform failure is not interference evidence.
	minRate := -1.0
	for ch := range inUse {
		if res.ChannelAttempts[ch] < minAttempts {
			continue
		}
		if r := res.ChannelFailureRate(ch); minRate < 0 || r < minRate {
			minRate = r
		}
	}
	if minRate < 0 {
		return channels, nil
	}
	var bad []int
	for ch := range inUse {
		if res.ChannelAttempts[ch] < minAttempts {
			continue
		}
		r := res.ChannelFailureRate(ch)
		if r >= rateT && r >= 4*minRate {
			bad = append(bad, ch)
		}
	}
	if len(bad) == 0 {
		return channels, nil
	}
	sort.Ints(bad)
	var spare []int
	for ch := 0; ch < topology.NumChannels; ch++ {
		if !used[ch] {
			spare = append(spare, ch)
		}
	}
	out := append([]int(nil), channels...)
	var removed []int
	for _, ch := range bad {
		if len(spare) == 0 {
			break // nothing clean left to hop to; keep the rest as-is
		}
		repl := spare[0]
		spare = spare[1:]
		used[repl] = true
		for i, c := range out {
			if c == ch {
				out[i] = repl
			}
		}
		removed = append(removed, ch)
	}
	return out, removed
}
