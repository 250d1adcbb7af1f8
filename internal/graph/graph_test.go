package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// line builds a path graph 0-1-2-...-(n-1).
func line(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			panic(err)
		}
	}
	return g
}

func TestAddEdgeBounds(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(-1, 0); err == nil {
		t.Error("AddEdge(-1,0) should fail")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Error("AddEdge(0,3) should fail")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Errorf("AddEdge(0,1): %v", err)
	}
}

func TestAddEdgeDedup(t *testing.T) {
	g := New(2)
	for i := 0; i < 3; i++ {
		if err := g.AddEdge(0, 1); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	if got := g.NumEdges(); got != 1 {
		t.Errorf("NumEdges = %d, want 1", got)
	}
	if got := g.Degree(0); got != 1 {
		t.Errorf("Degree(0) = %d, want 1", got)
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	g := New(2)
	if err := g.AddEdge(1, 1); err != nil {
		t.Fatalf("AddEdge self loop: %v", err)
	}
	if g.NumEdges() != 0 {
		t.Errorf("self loop should not be stored, NumEdges = %d", g.NumEdges())
	}
}

func TestBFSLine(t *testing.T) {
	g := line(5)
	dist := g.BFS(0)
	for i := 0; i < 5; i++ {
		if int(dist[i]) != i {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], i)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	dist := g.BFS(0)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Errorf("isolated nodes should be Unreachable, got %v", dist)
	}
}

func TestBFSBadSource(t *testing.T) {
	g := line(3)
	dist := g.BFS(-1)
	for i, d := range dist {
		if d != Unreachable {
			t.Errorf("dist[%d] = %d, want Unreachable for invalid source", i, d)
		}
	}
}

func TestAllPairsHopSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 30, 0.15)
	m := g.AllPairsHop()
	for u := 0; u < 30; u++ {
		for v := 0; v < 30; v++ {
			if m.Dist(u, v) != m.Dist(v, u) {
				t.Fatalf("Dist(%d,%d)=%d != Dist(%d,%d)=%d",
					u, v, m.Dist(u, v), v, u, m.Dist(v, u))
			}
		}
	}
}

func TestHopMatrixTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 25, 0.2)
	m := g.AllPairsHop()
	n := m.Len()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			for w := 0; w < n; w++ {
				duv, duw, dwv := m.Dist(u, v), m.Dist(u, w), m.Dist(w, v)
				if duw == Unreachable || dwv == Unreachable {
					continue
				}
				if duv == Unreachable {
					t.Fatalf("u-w and w-v reachable but u-v not: %d %d %d", u, v, w)
				}
				if int(duv) > int(duw)+int(dwv) {
					t.Fatalf("triangle violated: d(%d,%d)=%d > %d+%d", u, v, duv, duw, dwv)
				}
			}
		}
	}
}

func TestDiameterLine(t *testing.T) {
	for n := 1; n <= 10; n++ {
		g := line(n)
		if got := g.AllPairsHop().Diameter(); got != n-1 {
			t.Errorf("line(%d) diameter = %d, want %d", n, got, n-1)
		}
	}
}

func TestDiameterEmpty(t *testing.T) {
	if got := New(0).AllPairsHop().Diameter(); got != 0 {
		t.Errorf("empty graph diameter = %d, want 0", got)
	}
	if got := New(5).AllPairsHop().Diameter(); got != 0 {
		t.Errorf("edgeless graph diameter = %d, want 0", got)
	}
}

// TestDiameterMatchesBruteForce checks the diameter AllPairsHop stores
// against a max over every Dist that skips Unreachable, on random graphs
// from edgeless through sparse (usually disconnected) to dense.
func TestDiameterMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		g := New(n)
		edgeProb := []float64{0, 0.02, 0.05, 0.15, 0.5}[trial%5]
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < edgeProb {
					if err := g.AddEdge(u, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		m := g.AllPairsHop()
		want := 0
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if d := m.Dist(u, v); d != Unreachable && int(d) > want {
					want = int(d)
				}
			}
		}
		if got := m.Diameter(); got != want {
			t.Fatalf("trial %d (n=%d, p=%.2f, %d components): Diameter = %d, brute force %d",
				trial, n, edgeProb, len(g.Components()), got, want)
		}
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3: %v", len(comps), comps)
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Errorf("component sizes wrong: %v", comps)
	}
	lc := g.LargestComponent()
	if len(lc) != 3 {
		t.Errorf("largest component size = %d, want 3", len(lc))
	}
}

func TestShortestPathHopLine(t *testing.T) {
	g := line(5)
	path := g.ShortestPathHop(0, 4)
	want := []int{0, 1, 2, 3, 4}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestShortestPathHopSame(t *testing.T) {
	g := line(3)
	path := g.ShortestPathHop(1, 1)
	if len(path) != 1 || path[0] != 1 {
		t.Errorf("path to self = %v, want [1]", path)
	}
}

func TestShortestPathHopUnreachable(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if path := g.ShortestPathHop(0, 3); path != nil {
		t.Errorf("path = %v, want nil", path)
	}
}

// Property: hop-count shortest path length equals the BFS distance.
func TestPathLengthMatchesBFSDistance(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(3))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, 0.2)
		src, dst := rng.Intn(n), rng.Intn(n)
		dist := g.BFS(src)
		path := g.ShortestPathHop(src, dst)
		if dist[dst] == Unreachable {
			return path == nil
		}
		return len(path) == int(dist[dst])+1 && path[0] == src && path[len(path)-1] == dst
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: every consecutive pair on a returned path is an edge.
func TestPathEdgesExist(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(9))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, 0.15)
		path := g.ShortestPathHop(rng.Intn(n), rng.Intn(n))
		for i := 0; i+1 < len(path); i++ {
			if !g.HasEdge(path[i], path[i+1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				if err := g.AddEdge(u, v); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

func BenchmarkAllPairsHop80(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 80, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.AllPairsHop()
	}
}

func BenchmarkBFS80(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 80, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.BFS(i % 80)
	}
}

func TestArticulationPointsLine(t *testing.T) {
	// In a path graph every interior node is a cut vertex.
	g := line(5)
	got := g.ArticulationPoints()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("cuts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cuts = %v, want %v", got, want)
		}
	}
}

func TestArticulationPointsCycle(t *testing.T) {
	// A cycle has no cut vertices.
	g := New(5)
	for i := 0; i < 5; i++ {
		if err := g.AddEdge(i, (i+1)%5); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.ArticulationPoints(); len(got) != 0 {
		t.Errorf("cycle has cuts %v", got)
	}
}

func TestArticulationPointsBridgeNode(t *testing.T) {
	// Two triangles joined at node 2: only node 2 is a cut vertex.
	g := New(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	got := g.ArticulationPoints()
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("cuts = %v, want [2]", got)
	}
}

func TestArticulationPointsDisconnected(t *testing.T) {
	// Two separate edges: no cut vertices (removing an endpoint leaves the
	// other component intact and its peer isolated — isolated ≠ newly
	// disconnected pair within the component).
	g := New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if got := g.ArticulationPoints(); len(got) != 0 {
		t.Errorf("cuts = %v, want none", got)
	}
}

// Property: removing a cut vertex increases the component count; removing a
// non-cut vertex of a connected graph keeps the rest connected.
func TestArticulationPointsMatchBruteForce(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		g := randomGraph(rng, n, 0.25)
		cuts := make(map[int]bool)
		for _, c := range g.ArticulationPoints() {
			cuts[c] = true
		}
		baseComps := len(g.Components())
		for v := 0; v < n; v++ {
			// Rebuild the graph without v.
			h := New(n)
			for u := 0; u < n; u++ {
				if u == v {
					continue
				}
				for _, w := range g.Neighbors(u) {
					if int(w) == v || int(w) < u {
						continue
					}
					if err := h.AddEdge(u, int(w)); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Count components ignoring v itself (it is isolated in h) and
			// ignoring nodes that were already isolated.
			comps := 0
			for _, comp := range h.Components() {
				if len(comp) == 1 && (comp[0] == v || g.Degree(comp[0]) == 0) {
					continue
				}
				comps++
			}
			base := 0
			for _, comp := range g.Components() {
				if len(comp) == 1 && g.Degree(comp[0]) == 0 {
					continue
				}
				base++
			}
			// If v had degree 0, removing it changes nothing.
			if g.Degree(v) == 0 {
				continue
			}
			// v's own component may vanish entirely if v was a leaf's only
			// peer... base comparison: cut ⇔ more components among
			// non-isolated nodes.
			increased := comps > base
			if cuts[v] && !increased {
				t.Fatalf("seed %d: node %d flagged cut but removal kept %d comps (base %d)",
					seed, v, comps, base)
			}
			if !cuts[v] && increased {
				t.Fatalf("seed %d: node %d not flagged but removal split %d→%d comps",
					seed, v, base, comps)
			}
			_ = baseComps
		}
	}
}

// TestForestInvalidationOnMutation is the regression test for the
// ShortestPathHop predecessor-forest cache: a structural edit after a path
// query must invalidate the cached forest, or later queries would return
// routes through a graph that no longer exists.
func TestForestInvalidationOnMutation(t *testing.T) {
	g := New(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	// Prime the cache: the only 0→4 path walks the whole line.
	if got := g.ShortestPathHop(0, 4); len(got) != 5 {
		t.Fatalf("path before mutation = %v, want 5 nodes", got)
	}
	// A new shortcut must be visible immediately.
	if err := g.AddEdge(0, 4); err != nil {
		t.Fatal(err)
	}
	if got := g.ShortestPathHop(0, 4); len(got) != 2 {
		t.Fatalf("path after AddEdge = %v, want the 0-4 shortcut", got)
	}
}

// TestWithoutMatchesEdgeByEdgeRebuild pins Without against the edge-by-edge
// rebuild the detour callers used before it existed: on random graphs whose
// adjacency lists are not sorted, the copy must have the same adjacency
// order (so minimum-hop tie-breaks agree), isolate exactly the listed
// nodes, ignore out-of-range IDs, and leave the source graph untouched.
func TestWithoutMatchesEdgeByEdgeRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(30)
		g := New(n)
		for e := rng.Intn(4 * n); e > 0; e-- {
			_ = g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		edges := g.NumEdges()
		nodes := []int{-1, n}
		for k := rng.Intn(4); k > 0; k-- {
			nodes = append(nodes, rng.Intn(n))
		}
		down := make(map[int]bool)
		for _, v := range nodes {
			down[v] = true
		}
		want := New(n)
		for u := 0; u < n; u++ {
			if down[u] {
				continue
			}
			for _, v := range g.Neighbors(u) {
				if !down[int(v)] {
					_ = want.AddEdge(u, int(v))
				}
			}
		}
		got := g.Without(nodes)
		for u := 0; u < n; u++ {
			a, b := got.Neighbors(u), want.Neighbors(u)
			if len(a) != len(b) {
				t.Fatalf("trial %d node %d: neighbors %v, want %v", trial, u, a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trial %d node %d: neighbors %v, want %v", trial, u, a, b)
				}
			}
			if down[u] && len(a) != 0 {
				t.Fatalf("trial %d: removed node %d keeps edges %v", trial, u, a)
			}
		}
		if g.NumEdges() != edges {
			t.Fatalf("trial %d: Without changed the source graph", trial)
		}
	}
}
