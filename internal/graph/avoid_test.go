package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wsan/internal/graph"
	"wsan/internal/topology"
)

// without is the reference detour graph: a copy of g with every edge at
// the avoided nodes deleted (out-of-range IDs ignored), built by ascending
// (u, v), u < v, insertion as topology builds its graphs.
func without(g *graph.Graph, avoid []int) *graph.Graph {
	n := g.Len()
	down := make([]bool, n)
	for _, v := range avoid {
		if v >= 0 && v < n {
			down[v] = true
		}
	}
	h := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !down[u] && !down[v] && g.HasEdge(u, v) {
				_ = h.AddEdge(u, v)
			}
		}
	}
	return h
}

// checkAvoiding compares ShortestPathAvoiding with ShortestPathHop on the
// reference copy for every endpoint pair, out-of-range endpoints included.
func checkAvoiding(t *testing.T, g *graph.Graph, avoid []int) {
	t.Helper()
	ref := without(g, avoid)
	for src := -1; src <= g.Len(); src++ {
		for dst := -1; dst <= g.Len(); dst++ {
			got := g.ShortestPathAvoiding(src, dst, avoid)
			if want := ref.ShortestPathHop(src, dst); !slices.Equal(got, want) {
				t.Fatalf("ShortestPathAvoiding(%d, %d, %v) = %v, want %v", src, dst, avoid, got, want)
			}
		}
	}
}

// FuzzShortestPathAvoiding holds the masked BFS to the rebuilt graph on
// random ascending-built graphs: edge (u, v), u < v, exists iff its bit in
// edgeBits is set, and avoid IDs span -2..n+1, so avoided endpoints and
// out-of-range IDs both occur.
func FuzzShortestPathAvoiding(f *testing.F) {
	f.Add(uint8(6), []byte{0xb5, 0x3c}, []byte{2})
	f.Add(uint8(12), []byte{0xff, 0xff, 0xff, 0x0f, 0x5a, 0xa5, 0x33, 0xcc}, []byte{0, 5, 13, 200})
	f.Add(uint8(1), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, size uint8, edgeBits, avoidRaw []byte) {
		n := 1 + int(size)%32
		g := graph.New(n)
		bit := 0
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if bit < 8*len(edgeBits) && edgeBits[bit/8]&(1<<(bit%8)) != 0 {
					_ = g.AddEdge(u, v)
				}
				bit++
			}
		}
		avoid := make([]int, len(avoidRaw))
		for i, b := range avoidRaw {
			avoid[i] = int(b)%(n+4) - 2
		}
		checkAvoiding(t, g, avoid)
	})
}

// TestShortestPathAvoidingTestbeds checks the masked BFS on every
// testbed's G_c (Indriya and WUSTL, seeds 1-3, 8 channels, PRR ≥ 0.9):
// around every single node, and around random sets that may hold either
// endpoint or an out-of-range ID. -short checks every tenth node and five
// random sets.
func TestShortestPathAvoidingTestbeds(t *testing.T) {
	step, trials := 1, 20
	if testing.Short() {
		step, trials = 10, 5
	}
	for _, bed := range []struct {
		name string
		gen  func(int64) (*topology.Testbed, error)
	}{{"indriya", topology.Indriya}, {"wustl", topology.WUSTL}} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/%d", bed.name, seed), func(t *testing.T) {
				tb, err := bed.gen(seed)
				if err != nil {
					t.Fatal(err)
				}
				g, err := tb.CommGraph(topology.Channels(8), 0.9)
				if err != nil {
					t.Fatal(err)
				}
				n := g.Len()
				for v := 0; v < n; v += step {
					checkAvoiding(t, g, []int{v})
				}
				rng := rand.New(rand.NewSource(seed))
				for trial := 0; trial < trials; trial++ {
					avoid := make([]int, 1+rng.Intn(4))
					for i := range avoid {
						avoid[i] = rng.Intn(n+2) - 1
					}
					checkAvoiding(t, g, avoid)
				}
			})
		}
	}
}
