// Package routing constructs source routes for flows over the communication
// graph, implementing the two traffic patterns of Sec. VII:
//
//   - Centralized: a sensor packet travels from the source to its nearest
//     access point, crosses the wired backbone to the gateway where the
//     controller runs, and the control message travels from the access point
//     nearest the destination down to the actuator. Only the two wireless
//     segments consume time slots.
//   - Peer-to-peer: the controller runs on a field device, so the packet is
//     routed directly from source to destination.
//
// Routes are single minimum-hop paths, the paper's choice. Link quality is
// handled by per-hop retransmission budgets (internal/budget), not by the
// route metric.
package routing

import (
	"fmt"
	"slices"

	"wsan/internal/flow"
	"wsan/internal/graph"
)

// Traffic selects the routing pattern.
type Traffic int

const (
	// Centralized routes every flow through the wired gateway via access
	// points.
	Centralized Traffic = iota + 1
	// PeerToPeer routes flows directly between field devices.
	PeerToPeer
)

// String implements fmt.Stringer.
func (t Traffic) String() string {
	switch t {
	case Centralized:
		return "centralized"
	case PeerToPeer:
		return "peer-to-peer"
	default:
		return fmt.Sprintf("Traffic(%d)", int(t))
	}
}

// Config parameterizes route assignment.
type Config struct {
	// Traffic is the routing pattern. Required.
	Traffic Traffic
	// APs are the access-point node IDs; required for Centralized traffic.
	APs []int
	// BalanceAPs spreads centralized traffic across access points: among
	// APs within one hop of the nearest, each endpoint picks the least
	// loaded (load = Σ 1/period of assigned flows), then the one with the
	// fewest hops, then the lowest AP ID. Without it every endpoint uses its
	// nearest AP (the first listed on a tie), which can saturate one AP's
	// radio while the other idles.
	BalanceAPs bool
}

// Assign computes and stores a route for every flow. For centralized traffic
// the route is path(src→AP_u) ++ path(AP_d→dst) where AP_u and AP_d are the
// access points fewest hops from the source and destination; the wired
// AP→gateway→AP segment contributes no links. It returns an error if any flow
// has no feasible route.
func Assign(flows []*flow.Flow, g *graph.Graph, cfg Config) error {
	switch cfg.Traffic {
	case PeerToPeer:
		for _, f := range flows {
			path := g.ShortestPathHop(f.Src, f.Dst)
			if path == nil {
				return fmt.Errorf("flow %d: no route from %d to %d", f.ID, f.Src, f.Dst)
			}
			f.Route = PathLinks(path)
		}
		return nil
	case Centralized:
		if len(cfg.APs) == 0 {
			return fmt.Errorf("centralized routing requires at least one access point")
		}
		load := make(map[int]float64, len(cfg.APs))
		for _, f := range flows {
			rate := 0.0
			if f.Period > 0 {
				rate = 1 / float64(f.Period)
			}
			up, apUp, err := routeToAP(g, f.Src, cfg, load, false)
			if err != nil {
				return fmt.Errorf("flow %d uplink: %w", f.ID, err)
			}
			load[apUp] += rate
			down, apDown, err := routeToAP(g, f.Dst, cfg, load, true)
			if err != nil {
				return fmt.Errorf("flow %d downlink: %w", f.ID, err)
			}
			load[apDown] += rate
			f.Route = joinLinks(up, down)
		}
		return nil
	default:
		return fmt.Errorf("unknown traffic pattern %v", cfg.Traffic)
	}
}

// routeToAP picks an access point for one endpoint by hop count (see
// Config.BalanceAPs) and returns the path and the chosen AP. Hop counts come
// from alloc-free forest walks; only the chosen path is materialized. With
// reverse=true the returned path runs AP→node (the downlink direction);
// otherwise node→AP.
func routeToAP(g *graph.Graph, node int, cfg Config, load map[int]float64, reverse bool) ([]int, int, error) {
	for _, ap := range cfg.APs {
		if ap == node {
			// The endpoint is itself an access point: zero wireless hops.
			return []int{node}, ap, nil
		}
	}
	bestAP, bestHops := -1, -1
	for _, ap := range cfg.APs {
		if h := g.HopDist(node, ap); h >= 0 && (bestAP < 0 || h < bestHops) {
			bestAP, bestHops = ap, h
		}
	}
	if bestAP < 0 {
		return nil, 0, fmt.Errorf("node %d cannot reach any access point", node)
	}
	if cfg.BalanceAPs {
		nearest := bestHops
		for _, ap := range cfg.APs {
			h := g.HopDist(node, ap)
			if h < 0 || h > nearest+1 {
				continue
			}
			if load[ap] < load[bestAP] ||
				(load[ap] == load[bestAP] && (h < bestHops || (h == bestHops && ap < bestAP))) {
				bestAP, bestHops = ap, h
			}
		}
	}
	path := g.ShortestPathHop(node, bestAP)
	if reverse {
		slices.Reverse(path)
	}
	return path, bestAP, nil
}

// joinLinks concatenates the uplink and downlink node paths into one directed
// link slice, sized exactly — one allocation instead of two PathLinks slices
// plus an append regrow per flow.
func joinLinks(up, down []int) []flow.Link {
	n := 0
	if len(up) > 1 {
		n += len(up) - 1
	}
	if len(down) > 1 {
		n += len(down) - 1
	}
	if n == 0 {
		return nil
	}
	links := make([]flow.Link, 0, n)
	for i := 0; i+1 < len(up); i++ {
		links = append(links, flow.Link{From: up[i], To: up[i+1]})
	}
	for i := 0; i+1 < len(down); i++ {
		links = append(links, flow.Link{From: down[i], To: down[i+1]})
	}
	return links
}

// PathLinks converts a node path to directed links; a single-node path has
// no links.
func PathLinks(path []int) []flow.Link {
	if len(path) < 2 {
		return nil
	}
	links := make([]flow.Link, len(path)-1)
	for i := range links {
		links[i] = flow.Link{From: path[i], To: path[i+1]}
	}
	return links
}

// Validate checks that every assigned route is well-formed: contiguous
// within each wireless segment, starting at Src, ending at Dst, and using
// only edges of g. Centralized routes are allowed one discontinuity (the
// wired gateway segment) provided both sides are access points.
func Validate(f *flow.Flow, g *graph.Graph, cfg Config) error {
	if len(f.Route) == 0 {
		// Legal only for a centralized flow whose endpoints are both APs —
		// the generator never produces those, so treat as an error.
		return fmt.Errorf("flow %d: empty route", f.ID)
	}
	if f.Route[0].From != f.Src {
		return fmt.Errorf("flow %d: route starts at %d, not source %d", f.ID, f.Route[0].From, f.Src)
	}
	if last := f.Route[len(f.Route)-1].To; last != f.Dst {
		return fmt.Errorf("flow %d: route ends at %d, not destination %d", f.ID, last, f.Dst)
	}
	breaks := 0
	for i, l := range f.Route {
		if !g.HasEdge(l.From, l.To) {
			return fmt.Errorf("flow %d: hop %d (%d→%d) is not an edge", f.ID, i, l.From, l.To)
		}
		if i > 0 && f.Route[i-1].To != l.From {
			breaks++
			if cfg.Traffic != Centralized {
				return fmt.Errorf("flow %d: discontinuous route at hop %d", f.ID, i)
			}
			if !contains(cfg.APs, f.Route[i-1].To) || !contains(cfg.APs, l.From) {
				return fmt.Errorf("flow %d: wired segment at hop %d not between access points", f.ID, i)
			}
		}
	}
	if breaks > 1 {
		return fmt.Errorf("flow %d: %d wired segments, at most 1 allowed", f.ID, breaks)
	}
	return nil
}

func contains(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}
