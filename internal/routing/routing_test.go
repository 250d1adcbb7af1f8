package routing

import (
	"math/rand"
	"strings"
	"testing"

	"wsan/internal/flow"
	"wsan/internal/graph"
	"wsan/internal/topology"
)

// grid builds a w×h grid graph; node id = row*w + col.
func grid(w, h int) *graph.Graph {
	g := graph.New(w * h)
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			id := r*w + c
			if c+1 < w {
				if err := g.AddEdge(id, id+1); err != nil {
					panic(err)
				}
			}
			if r+1 < h {
				if err := g.AddEdge(id, id+w); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

func TestTrafficString(t *testing.T) {
	if Centralized.String() != "centralized" || PeerToPeer.String() != "peer-to-peer" {
		t.Error("Traffic.String wrong")
	}
	if !strings.Contains(Traffic(9).String(), "9") {
		t.Error("unknown traffic should include the number")
	}
}

func TestAssignPeerToPeer(t *testing.T) {
	g := grid(5, 5)
	f := &flow.Flow{ID: 0, Src: 0, Dst: 24, Period: 100, Deadline: 100}
	cfg := Config{Traffic: PeerToPeer}
	if err := Assign([]*flow.Flow{f}, g, cfg); err != nil {
		t.Fatal(err)
	}
	if len(f.Route) != 8 {
		t.Errorf("route length = %d, want 8 (Manhattan distance)", len(f.Route))
	}
	if err := Validate(f, g, cfg); err != nil {
		t.Errorf("route invalid: %v", err)
	}
}

func TestAssignPeerToPeerNoRoute(t *testing.T) {
	g := graph.New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	f := &flow.Flow{ID: 0, Src: 0, Dst: 3, Period: 100, Deadline: 100}
	if err := Assign([]*flow.Flow{f}, g, Config{Traffic: PeerToPeer}); err == nil {
		t.Error("unreachable destination should fail")
	}
}

func TestAssignCentralized(t *testing.T) {
	g := grid(5, 5)
	// APs in opposite corners of the middle row.
	cfg := Config{Traffic: Centralized, APs: []int{10, 14}}
	f := &flow.Flow{ID: 0, Src: 0, Dst: 24, Period: 100, Deadline: 100}
	if err := Assign([]*flow.Flow{f}, g, cfg); err != nil {
		t.Fatal(err)
	}
	if err := Validate(f, g, cfg); err != nil {
		t.Errorf("route invalid: %v", err)
	}
	// Uplink should go to AP 10 (distance 2 from node 0) and the downlink
	// should come from AP 14 (distance 2 from node 24).
	foundUplinkEnd := false
	for i, l := range f.Route {
		if l.To == 10 && (i+1 == len(f.Route) || f.Route[i+1].From != 10) {
			foundUplinkEnd = true
		}
	}
	if !foundUplinkEnd {
		t.Errorf("route does not pass through nearest AP 10: %v", f.Route)
	}
}

func TestAssignCentralizedRequiresAPs(t *testing.T) {
	g := grid(3, 3)
	f := &flow.Flow{ID: 0, Src: 0, Dst: 8, Period: 100, Deadline: 100}
	if err := Assign([]*flow.Flow{f}, g, Config{Traffic: Centralized}); err == nil {
		t.Error("centralized without APs should fail")
	}
}

func TestAssignUnknownTraffic(t *testing.T) {
	g := grid(2, 2)
	if err := Assign(nil, g, Config{Traffic: Traffic(0)}); err == nil {
		t.Error("unknown traffic should fail")
	}
}

func TestCentralizedLongerThanP2P(t *testing.T) {
	// The paper observes centralized routes are roughly twice the length of
	// p2p routes. Verify the direction of the relationship statistically.
	tb, err := topology.Indriya(3)
	if err != nil {
		t.Fatal(err)
	}
	gc, err := tb.CommGraph(topology.Channels(4), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	aps := topology.AccessPoints(gc, 2)
	rng := rand.New(rand.NewSource(5))
	flows, err := flow.Generate(rng, gc, flow.GenConfig{
		NumFlows: 40, MinPeriodExp: 0, MaxPeriodExp: 2, Exclude: aps,
	})
	if err != nil {
		t.Fatal(err)
	}
	p2p := cloneFlows(flows)
	cen := cloneFlows(flows)
	if err := Assign(p2p, gc, Config{Traffic: PeerToPeer}); err != nil {
		t.Fatal(err)
	}
	if err := Assign(cen, gc, Config{Traffic: Centralized, APs: aps}); err != nil {
		t.Fatal(err)
	}
	var lenP, lenC int
	for i := range p2p {
		lenP += len(p2p[i].Route)
		lenC += len(cen[i].Route)
	}
	if lenC <= lenP {
		t.Errorf("centralized total hops %d should exceed p2p %d", lenC, lenP)
	}
	t.Logf("avg route length: p2p=%.1f centralized=%.1f",
		float64(lenP)/40, float64(lenC)/40)
}

func cloneFlows(flows []*flow.Flow) []*flow.Flow {
	out := make([]*flow.Flow, len(flows))
	for i, f := range flows {
		cp := *f
		cp.Route = nil
		out[i] = &cp
	}
	return out
}

// TestAPTieBreakOrder pins access-point selection where hop counts and loads
// tie. On the graph below, with APs listed as [5 3 1 6], node 0 reaches APs 1
// and 5 in one hop, AP 3 in two and AP 6 in three; node 2 reaches AP 3 in one
// hop and APs 1, 5 and 6 in two.
//
//	1 - 0 - 5
//	    |
//	3 - 2 - 4 - 6
//
// Without balancing an endpoint takes the fewest hops, the first listed AP on
// a tie. With balancing it takes, among APs within one hop of the nearest, the
// lowest load, then the fewest hops, then the lowest AP ID.
func TestAPTieBreakOrder(t *testing.T) {
	g := graph.New(7)
	for _, e := range [][2]int{{0, 1}, {0, 5}, {0, 2}, {2, 3}, {2, 4}, {4, 6}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	aps := []int{5, 3, 1, 6}
	cases := []struct {
		name    string
		node    int
		balance bool
		load    map[int]float64
		want    int
	}{
		{"fewest hops, first listed", 0, false, nil, 5},
		{"unbalanced ignores load", 0, false, map[int]float64{5: 1}, 5},
		{"unbalanced nearest", 2, false, nil, 3},
		{"endpoint is an AP", 3, true, map[int]float64{3: 1}, 3},
		{"load tie, hop tie, lowest ID", 0, true, nil, 1},
		{"lowest load, then fewest hops", 0, true, map[int]float64{1: 0.5}, 5},
		{"lowest load one hop further", 0, true, map[int]float64{1: 0.5, 5: 0.5}, 3},
		{"two hops further is out of reach", 0, true, map[int]float64{1: 0.5, 3: 0.5, 5: 0.5}, 1},
		{"balanced nearest", 2, true, nil, 3},
		{"load tie at two hops, lowest ID", 2, true, map[int]float64{3: 0.5}, 1},
		{"lowest load at two hops", 2, true, map[int]float64{3: 0.5, 1: 0.25}, 5},
	}
	for _, tc := range cases {
		for _, reverse := range []bool{false, true} {
			cfg := Config{Traffic: Centralized, APs: aps, BalanceAPs: tc.balance}
			path, ap, err := routeToAP(g, tc.node, cfg, tc.load, reverse)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if ap != tc.want {
				t.Errorf("%s: node %d got AP %d, want %d", tc.name, tc.node, ap, tc.want)
				continue
			}
			from, to := tc.node, ap
			if reverse {
				from, to = ap, tc.node
			}
			if len(path) != g.HopDist(tc.node, ap)+1 || path[0] != from || path[len(path)-1] != to {
				t.Errorf("%s (reverse=%v): path %v is not a minimum-hop %d→%d path", tc.name, reverse, path, from, to)
			}
		}
	}
}

func TestValidateCatchesCorruptRoutes(t *testing.T) {
	g := grid(4, 4)
	cfg := Config{Traffic: PeerToPeer}
	cases := []struct {
		name string
		f    flow.Flow
	}{
		{"empty", flow.Flow{ID: 0, Src: 0, Dst: 5}},
		{"wrong start", flow.Flow{ID: 1, Src: 0, Dst: 5,
			Route: []flow.Link{{From: 1, To: 5}}}},
		{"wrong end", flow.Flow{ID: 2, Src: 0, Dst: 5,
			Route: []flow.Link{{From: 0, To: 1}}}},
		{"not an edge", flow.Flow{ID: 3, Src: 0, Dst: 5,
			Route: []flow.Link{{From: 0, To: 5}}}},
		{"discontinuous", flow.Flow{ID: 4, Src: 0, Dst: 6,
			Route: []flow.Link{{From: 0, To: 1}, {From: 5, To: 6}}}},
	}
	for _, tc := range cases {
		f := tc.f
		if err := Validate(&f, g, cfg); err == nil {
			t.Errorf("%s: Validate should fail", tc.name)
		}
	}
}

func TestValidateAllowsWiredBreakBetweenAPs(t *testing.T) {
	g := grid(4, 1) // path 0-1-2-3
	cfg := Config{Traffic: Centralized, APs: []int{1, 2}}
	f := flow.Flow{ID: 0, Src: 0, Dst: 3,
		Route: []flow.Link{{From: 0, To: 1}, {From: 2, To: 3}}}
	if err := Validate(&f, g, cfg); err != nil {
		t.Errorf("wired break between APs should validate: %v", err)
	}
	// Break not between APs.
	bad := flow.Flow{ID: 1, Src: 0, Dst: 3,
		Route: []flow.Link{{From: 0, To: 1}, {From: 3, To: 3}}}
	if err := Validate(&bad, g, cfg); err == nil {
		t.Error("break not between APs should fail")
	}
}

func TestBalanceAPsSpreadsLoad(t *testing.T) {
	// Path 0-1-2-3-4 with APs at 1 and 3. Sources clustered at node 2 are
	// equidistant from both APs: unbalanced routing always picks AP 1
	// (lower ID); balanced routing alternates.
	g := grid(5, 1)
	mkFlows := func() []*flow.Flow {
		var flows []*flow.Flow
		for i := 0; i < 4; i++ {
			f := &flow.Flow{ID: i, Src: 2, Dst: 0, Period: 100, Deadline: 100}
			if i%2 == 1 {
				f.Dst = 4
			}
			flows = append(flows, f)
		}
		return flows
	}
	apUse := func(balance bool) map[int]int {
		flows := mkFlows()
		cfg := Config{Traffic: Centralized, APs: []int{1, 3}, BalanceAPs: balance}
		if err := Assign(flows, g, cfg); err != nil {
			t.Fatal(err)
		}
		use := map[int]int{}
		for _, f := range flows {
			// The uplink AP is the first access point the route reaches.
			for _, l := range f.Route {
				if l.To == 1 || l.To == 3 {
					use[l.To]++
					break
				}
			}
		}
		return use
	}
	unbalanced := apUse(false)
	if unbalanced[1] != 4 || unbalanced[3] != 0 {
		t.Errorf("unbalanced uplinks = %v, want all on AP 1", unbalanced)
	}
	balanced := apUse(true)
	if balanced[1] == 0 || balanced[3] == 0 {
		t.Errorf("balanced uplinks = %v, want both APs used", balanced)
	}
}

func TestBalanceAPsRoutesStillValid(t *testing.T) {
	tb, err := topology.Indriya(3)
	if err != nil {
		t.Fatal(err)
	}
	gc, err := tb.CommGraph(topology.Channels(4), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	aps := topology.AccessPoints(gc, 2)
	rng := rand.New(rand.NewSource(9))
	flows, err := flow.Generate(rng, gc, flow.GenConfig{
		NumFlows: 30, MinPeriodExp: 0, MaxPeriodExp: 2, Exclude: aps,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Traffic: Centralized, APs: aps, BalanceAPs: true}
	if err := Assign(flows, gc, cfg); err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if err := Validate(f, gc, cfg); err != nil {
			t.Errorf("flow %d: %v", f.ID, err)
		}
	}
}
