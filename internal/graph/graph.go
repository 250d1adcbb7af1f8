// Package graph provides the small set of graph algorithms the scheduler and
// topology layers need: breadth-first hop distances (single-source and
// all-pairs), minimum-hop paths, connected components, cut vertices, and the
// graph diameter used as the initial channel-reuse hop distance in the RC
// algorithm.
//
// Graphs are undirected and nodes are dense integer IDs in [0, N). The
// package is deliberately dependency-free and allocation-conscious: the
// all-pairs hop matrix is the inner loop of the channel-reuse constraint
// check, so it is stored as a flat []uint8.
package graph

import (
	"fmt"
	"math"
	"sync"
)

// Unreachable marks a pair of nodes with no connecting path in hop-distance
// queries. It is larger than any real hop count in a graph of < 255 nodes.
const Unreachable = uint8(math.MaxUint8)

// Graph is an undirected graph over nodes 0..N-1 stored as adjacency lists.
// The zero value is an empty graph; use New to create one with a fixed node
// count.
type Graph struct {
	n   int
	adj [][]int32

	// mu guards forests, the lazily built per-source BFS predecessor forests
	// serving ShortestPathHop: route construction asks for many destinations
	// from the same source (and the same graph serves every Monte-Carlo
	// trial), so one BFS per source replaces one per query.
	//
	// Cache-invalidation audit: AddEdge is the ONLY method that mutates
	// adjacency, and it clears the cache under mu. Every other mutation the
	// manage loop performs — link-quality/PRR changes, channel blacklisting,
	// and node-crash avoidance — is modeled by constructing a brand-new Graph
	// from the testbed's link statistics (see topology.Testbed.CommGraph and
	// Without), never by editing an existing one, so no stale forest can
	// outlive the topology it was derived from.
	mu      sync.Mutex
	forests map[int32][]int32
}

// New returns an empty undirected graph with n nodes and no edges.
func New(n int) *Graph {
	return &Graph{
		n:   n,
		adj: make([][]int32, n),
	}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, nbrs := range g.adj {
		total += len(nbrs)
	}
	return total / 2
}

// AddEdge inserts the undirected edge (u, v). Self-loops and duplicate edges
// are ignored. It returns an error if either endpoint is out of range.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v || g.HasEdge(u, v) {
		return nil
	}
	g.adj[u] = append(g.adj[u], int32(v))
	g.adj[v] = append(g.adj[v], int32(u))
	g.mu.Lock()
	g.forests = nil // cached paths may no longer be minimum-hop
	g.mu.Unlock()
	return nil
}

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	for _, w := range g.adj[u] {
		if int(w) == v {
			return true
		}
	}
	return false
}

// Without returns a copy of g with every edge at the given nodes deleted
// (the nodes stay, isolated); out-of-range IDs are ignored. It re-adds the
// surviving edges in g's adjacency order, so minimum-hop tie-breaks on the
// copy follow g's. This is how a detour around suspect or failed nodes is
// routed.
func (g *Graph) Without(nodes []int) *Graph {
	down := make([]bool, g.n)
	for _, v := range nodes {
		if v >= 0 && v < g.n {
			down[v] = true
		}
	}
	out := New(g.n)
	for u, nbrs := range g.adj {
		if down[u] {
			continue
		}
		for _, v := range nbrs {
			if !down[v] {
				_ = out.AddEdge(u, int(v)) // in range: g's own edges
			}
		}
	}
	return out
}

// Neighbors returns the adjacency list of u. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(u int) []int32 {
	if u < 0 || u >= g.n {
		return nil
	}
	return g.adj[u]
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int {
	if u < 0 || u >= g.n {
		return 0
	}
	return len(g.adj[u])
}

// BFS computes hop distances from src to every node. Unreachable nodes are
// marked with the Unreachable sentinel. The result has length Len().
func (g *Graph) BFS(src int) []uint8 {
	dist := make([]uint8, g.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	if src < 0 || src >= g.n {
		return dist
	}
	dist[src] = 0
	queue := make([]int32, 0, g.n)
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		for _, v := range g.adj[u] {
			if dist[v] == Unreachable {
				if du < Unreachable-1 {
					dist[v] = du + 1
				} else {
					dist[v] = Unreachable - 1
				}
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// HopMatrix holds all-pairs hop distances as a flat row-major matrix so that
// lookups in the scheduler's constraint check are a single index computation.
type HopMatrix struct {
	n    int
	dist []uint8
	// diam is the largest finite entry of dist, computed once by
	// AllPairsHop: the matrix has no other constructor and no mutator.
	diam int
}

// AllPairsHop runs a BFS from every node and returns the all-pairs hop
// distance matrix.
func (g *Graph) AllPairsHop() *HopMatrix {
	m := &HopMatrix{
		n:    g.n,
		dist: make([]uint8, g.n*g.n),
	}
	for u := 0; u < g.n; u++ {
		copy(m.dist[u*g.n:(u+1)*g.n], g.BFS(u))
	}
	for _, d := range m.dist {
		if d != Unreachable && int(d) > m.diam {
			m.diam = int(d)
		}
	}
	return m
}

// Len returns the number of nodes the matrix covers.
func (m *HopMatrix) Len() int { return m.n }

// Dist returns the hop distance between u and v, or Unreachable if no path
// exists or an index is out of range.
func (m *HopMatrix) Dist(u, v int) uint8 {
	if u < 0 || u >= m.n || v < 0 || v >= m.n {
		return Unreachable
	}
	return m.dist[u*m.n+v]
}

// Row returns the distance row of node u — Row(u)[v] == Dist(u, v) — or nil
// when u is out of range. Graphs are undirected, so the matrix is symmetric
// and a row doubles as the column of the same node; hot loops that query
// many distances from one endpoint hoist the row once instead of paying
// Dist's bounds checks per lookup. The slice aliases the matrix: read-only.
func (m *HopMatrix) Row(u int) []uint8 {
	if u < 0 || u >= m.n {
		return nil
	}
	return m.dist[u*m.n : (u+1)*m.n]
}

// Diameter returns the maximum finite hop distance over all node pairs, i.e.
// the diameter of the largest connected component. An empty or edgeless graph
// has diameter 0.
func (m *HopMatrix) Diameter() int { return m.diam }

// Components returns the connected components as node-ID slices, ordered by
// their smallest member.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for start := 0; start < g.n; start++ {
		if seen[start] {
			continue
		}
		comp := []int{start}
		seen[start] = true
		for i := 0; i < len(comp); i++ {
			for _, v := range g.adj[comp[i]] {
				if !seen[v] {
					seen[v] = true
					comp = append(comp, int(v))
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// LargestComponent returns the node IDs of the largest connected component.
// Ties are broken in favor of the component with the smallest member ID.
func (g *Graph) LargestComponent() []int {
	var best []int
	for _, comp := range g.Components() {
		if len(comp) > len(best) {
			best = comp
		}
	}
	return best
}

// ShortestPathHop returns a minimum-hop path from src to dst (inclusive of
// both endpoints), or nil if dst is unreachable. Among equal-hop paths the
// one following the lowest neighbor IDs is returned, which keeps route
// construction deterministic.
func (g *Graph) ShortestPathHop(src, dst int) []int {
	if src < 0 || src >= g.n || dst < 0 || dst >= g.n {
		return nil
	}
	if src == dst {
		return []int{src}
	}
	prev := g.pathForest(src)
	if prev[dst] < 0 {
		return nil
	}
	hops := 0
	for at := int32(dst); at != -1; at = prev[at] {
		hops++
	}
	path := make([]int, hops)
	for at, i := int32(dst), hops-1; at != -1; at, i = prev[at], i-1 {
		path[i] = int(at)
	}
	return path
}

// HopDist returns the number of hops on a minimum-hop path from src to dst,
// or -1 when dst is unreachable. It walks the cached BFS forest without
// materializing the path, so callers comparing many destinations (access-point
// selection) pay no allocation per query.
func (g *Graph) HopDist(src, dst int) int {
	if src < 0 || src >= g.n || dst < 0 || dst >= g.n {
		return -1
	}
	if src == dst {
		return 0
	}
	prev := g.pathForest(src)
	if prev[dst] < 0 {
		return -1
	}
	hops := 0
	for at := int32(dst); at != -1; at = prev[at] {
		hops++
	}
	return hops - 1
}

// pathForest returns the BFS predecessor forest rooted at src, building and
// caching it on first use. prev[v] is v's predecessor on a minimum-hop path
// from src (-1 for src itself and for unreachable nodes). The traversal
// visits neighbors in adjacency order, exactly as a per-query BFS would, so
// extracted paths match ShortestPathHop's historical lowest-neighbor
// determinism. The returned slice is shared and must not be modified.
func (g *Graph) pathForest(src int) []int32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.forests[int32(src)]; ok {
		return f
	}
	prev := make([]int32, g.n)
	seen := make([]bool, g.n)
	for i := range prev {
		prev[i] = -1
	}
	seen[src] = true
	queue := make([]int32, 0, g.n)
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				prev[v] = u
				queue = append(queue, v)
			}
		}
	}
	if g.forests == nil {
		g.forests = make(map[int32][]int32)
	}
	g.forests[int32(src)] = prev
	return prev
}

// ArticulationPoints returns the cut vertices of the graph — nodes whose
// failure disconnects some currently-connected pair — in ascending ID order
// (Tarjan's low-link algorithm, iterative). In a WSAN these are the relay
// nodes whose battery death partitions the network; deployment reviews flag
// them.
func (g *Graph) ArticulationPoints() []int {
	disc := make([]int, g.n) // discovery times, 0 = unvisited
	low := make([]int, g.n)  // low-link values
	parent := make([]int32, g.n)
	isCut := make([]bool, g.n)
	for i := range parent {
		parent[i] = -1
	}
	timer := 0
	type frame struct {
		node int32
		next int // index into adjacency list
	}
	for start := 0; start < g.n; start++ {
		if disc[start] != 0 {
			continue
		}
		timer++
		disc[start] = timer
		low[start] = timer
		rootChildren := 0
		stack := []frame{{node: int32(start)}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			u := f.node
			if f.next < len(g.adj[u]) {
				v := g.adj[u][f.next]
				f.next++
				if disc[v] == 0 {
					if int(u) == start {
						rootChildren++
					}
					parent[v] = u
					timer++
					disc[v] = timer
					low[v] = timer
					stack = append(stack, frame{node: v})
				} else if v != parent[u] && disc[v] < low[u] {
					low[u] = disc[v]
				}
				continue
			}
			// Post-order: propagate low-link to the parent.
			stack = stack[:len(stack)-1]
			if p := parent[u]; p != -1 {
				if low[u] < low[p] {
					low[p] = low[u]
				}
				if int(p) != start && low[u] >= disc[p] {
					isCut[p] = true
				}
			}
		}
		if rootChildren > 1 {
			isCut[start] = true
		}
	}
	var cuts []int
	for i, c := range isCut {
		if c {
			cuts = append(cuts, i)
		}
	}
	return cuts
}
