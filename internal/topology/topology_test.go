package topology

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"wsan/internal/graph"
)

func genIndriya(t testing.TB) *Testbed {
	t.Helper()
	tb, err := Indriya(1)
	if err != nil {
		t.Fatalf("Indriya: %v", err)
	}
	return tb
}

func genWUSTL(t testing.TB) *Testbed {
	t.Helper()
	tb, err := WUSTL(1)
	if err != nil {
		t.Fatalf("WUSTL: %v", err)
	}
	return tb
}

func TestChannelsHelper(t *testing.T) {
	if got := Channels(4); len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Errorf("Channels(4) = %v", got)
	}
	if got := Channels(0); len(got) != 0 {
		t.Errorf("Channels(0) = %v, want empty", got)
	}
	if got := Channels(99); len(got) != NumChannels {
		t.Errorf("Channels(99) length = %d, want %d", len(got), NumChannels)
	}
	if got := Channels(-3); len(got) != 0 {
		t.Errorf("Channels(-3) = %v, want empty", got)
	}
}

func TestIEEEChannelMapping(t *testing.T) {
	if IEEEChannel(0) != 11 || IEEEChannel(15) != 26 {
		t.Error("IEEEChannel mapping wrong")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Indriya(42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Indriya(42)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < a.NumNodes(); u++ {
		for v := 0; v < a.NumNodes(); v++ {
			for ch := 0; ch < NumChannels; ch++ {
				if a.PRR(u, v, ch) != b.PRR(u, v, ch) {
					t.Fatalf("same seed produced different PRR at (%d,%d,%d)", u, v, ch)
				}
			}
		}
	}
	c, err := Indriya(43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for u := 0; u < a.NumNodes() && same; u++ {
		for v := 0; v < a.NumNodes() && same; v++ {
			if a.PRR(u, v, 0) != c.PRR(u, v, 0) {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical PRR matrices")
	}
}

func TestGenerateValidation(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.NumNodes = 1
	if _, err := Generate(cfg, 1); err == nil {
		t.Error("NumNodes=1 should fail")
	}
	cfg = DefaultGenConfig()
	cfg.Floors = 0
	if _, err := Generate(cfg, 1); err == nil {
		t.Error("Floors=0 should fail")
	}
}

func TestTestbedSizes(t *testing.T) {
	if got := genIndriya(t).NumNodes(); got != 80 {
		t.Errorf("Indriya nodes = %d, want 80", got)
	}
	if got := genWUSTL(t).NumNodes(); got != 60 {
		t.Errorf("WUSTL nodes = %d, want 60", got)
	}
}

func TestNodesOnFloors(t *testing.T) {
	tb := genIndriya(t)
	floorCount := map[int]int{}
	for _, nd := range tb.Nodes {
		floorCount[nd.Floor]++
		if nd.X < 0 || nd.Y < 0 {
			t.Errorf("node %d at negative coordinate (%v,%v)", nd.ID, nd.X, nd.Y)
		}
	}
	if len(floorCount) != 3 {
		t.Fatalf("expected 3 floors, got %v", floorCount)
	}
	for f, c := range floorCount {
		if c < 25 || c > 28 {
			t.Errorf("floor %d has %d nodes, expected ~80/3", f, c)
		}
	}
}

func TestPRRBoundsAndDiagonal(t *testing.T) {
	tb := genWUSTL(t)
	n := tb.NumNodes()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			for ch := 0; ch < NumChannels; ch++ {
				p := tb.PRR(u, v, ch)
				if p < 0 || p > 1 {
					t.Fatalf("PRR(%d,%d,%d) = %v out of [0,1]", u, v, ch, p)
				}
				if u == v && p != 0 {
					t.Fatalf("self PRR must be 0, got %v", p)
				}
			}
		}
	}
}

func TestPRROutOfRange(t *testing.T) {
	tb := genWUSTL(t)
	if tb.PRR(-1, 0, 0) != 0 || tb.PRR(0, 999, 0) != 0 || tb.PRR(0, 1, 16) != 0 {
		t.Error("out-of-range PRR should be 0")
	}
	if !math.IsInf(tb.GainDBm(-1, 0, 0), -1) {
		t.Error("out-of-range GainDBm should be -Inf")
	}
}

func TestPRRMonotoneWithGain(t *testing.T) {
	// Higher gain must never give lower measured PRR (modulo quantization).
	tb := genWUSTL(t)
	type lg struct{ gain, prr float64 }
	var samples []lg
	for u := 0; u < 20; u++ {
		for v := 0; v < 20; v++ {
			if u != v {
				samples = append(samples, lg{tb.GainDBm(u, v, 0), tb.PRR(u, v, 0)})
			}
		}
	}
	for _, a := range samples {
		for _, b := range samples {
			if a.gain > b.gain+1e-9 && a.prr < b.prr-0.011 {
				t.Fatalf("gain %.1f has PRR %.2f but weaker gain %.1f has PRR %.2f",
					a.gain, a.prr, b.gain, b.prr)
			}
		}
	}
}

func TestCommGraphSubsetOfReuseGraph(t *testing.T) {
	tb := genIndriya(t)
	chs := Channels(4)
	gc, err := tb.CommGraph(chs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := tb.ReuseGraph(chs)
	if err != nil {
		t.Fatal(err)
	}
	n := tb.NumNodes()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if gc.HasEdge(u, v) && !gr.HasEdge(u, v) {
				t.Fatalf("edge (%d,%d) in G_c but not in G_R", u, v)
			}
		}
	}
	if gc.NumEdges() >= gr.NumEdges() {
		t.Errorf("G_c (%d edges) should be strictly sparser than G_R (%d edges)",
			gc.NumEdges(), gr.NumEdges())
	}
}

func TestCommGraphMoreChannelsIsSparser(t *testing.T) {
	// Requiring reliability on more channels can only remove edges.
	tb := genIndriya(t)
	g4, err := tb.CommGraph(Channels(4), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	g8, err := tb.CommGraph(Channels(8), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if g8.NumEdges() > g4.NumEdges() {
		t.Errorf("8-channel G_c has %d edges > 4-channel %d", g8.NumEdges(), g4.NumEdges())
	}
	n := tb.NumNodes()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if g8.HasEdge(u, v) && !g4.HasEdge(u, v) {
				t.Fatalf("edge (%d,%d) in 8-ch graph but not 4-ch graph", u, v)
			}
		}
	}
}

func TestGraphChannelValidation(t *testing.T) {
	tb := genWUSTL(t)
	if _, err := tb.CommGraph(nil, 0.9); err == nil {
		t.Error("empty channel list should fail")
	}
	if _, err := tb.CommGraph([]int{16}, 0.9); err == nil {
		t.Error("channel 16 should fail")
	}
	if _, err := tb.ReuseGraph([]int{-1}); err == nil {
		t.Error("channel -1 should fail")
	}
}

// The generated testbeds must support the paper's workloads: a connected,
// multi-hop communication graph on the 4 "good" channels.
func TestTestbedsUsableForScheduling(t *testing.T) {
	for _, tc := range []struct {
		name string
		tb   *Testbed
	}{
		{"indriya", genIndriya(t)},
		{"wustl", genWUSTL(t)},
	} {
		gc, err := tc.tb.CommGraph(Channels(4), 0.9)
		if err != nil {
			t.Fatal(err)
		}
		lc := gc.LargestComponent()
		if frac := float64(len(lc)) / float64(tc.tb.NumNodes()); frac < 0.8 {
			t.Errorf("%s: largest G_c component covers only %.0f%% of nodes", tc.name, frac*100)
		}
		sub := gc.AllPairsHop()
		diam := sub.Diameter()
		if diam < 3 {
			t.Errorf("%s: G_c diameter = %d, want a multi-hop network (≥3)", tc.name, diam)
		}
		gr, err := tc.tb.ReuseGraph(Channels(4))
		if err != nil {
			t.Fatal(err)
		}
		lambdaR := gr.AllPairsHop().Diameter()
		if lambdaR < 2 {
			t.Errorf("%s: G_R diameter = %d, reuse needs ≥2", tc.name, lambdaR)
		}
		t.Logf("%s: Gc edges=%d diam=%d largestComp=%d | GR edges=%d λ_R=%d",
			tc.name, gc.NumEdges(), diam, len(lc), gr.NumEdges(), lambdaR)
	}
}

func TestAccessPoints(t *testing.T) {
	tb := genIndriya(t)
	gc, err := tb.CommGraph(Channels(4), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	aps := AccessPoints(gc, 2)
	if len(aps) != 2 {
		t.Fatalf("got %d APs, want 2", len(aps))
	}
	if aps[0] == aps[1] {
		t.Error("APs must be distinct")
	}
	// The first AP must have the globally maximal degree.
	for i := 0; i < gc.Len(); i++ {
		if gc.Degree(i) > gc.Degree(aps[0]) {
			t.Errorf("node %d has degree %d > AP degree %d", i, gc.Degree(i), gc.Degree(aps[0]))
		}
	}
}

func TestAccessPointsKTooLarge(t *testing.T) {
	g := graph.New(3)
	if got := AccessPoints(g, 10); len(got) != 3 {
		t.Errorf("AccessPoints k>n returned %d, want 3", len(got))
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tb := genWUSTL(t)
	var buf bytes.Buffer
	if err := tb.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Name != tb.Name || got.NumNodes() != tb.NumNodes() {
		t.Fatalf("metadata mismatch: %s/%d vs %s/%d", got.Name, got.NumNodes(), tb.Name, tb.NumNodes())
	}
	n := tb.NumNodes()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			for ch := 0; ch < NumChannels; ch++ {
				if got.PRR(u, v, ch) != tb.PRR(u, v, ch) {
					t.Fatalf("PRR mismatch at (%d,%d,%d)", u, v, ch)
				}
			}
		}
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	if _, err := Decode(bytes.NewBufferString("{")); err == nil {
		t.Error("truncated JSON should fail")
	}
	if _, err := Decode(bytes.NewBufferString(`{"name":"x","nodes":[]}`)); err == nil {
		t.Error("empty node list should fail")
	}
	bad := `{"name":"x","nodes":[{"id":0},{"id":1}],"links":[{"from":0,"to":9}]}`
	if _, err := Decode(bytes.NewBufferString(bad)); err == nil {
		t.Error("out-of-range link should fail")
	}
}

// Property: PRR asymmetry exists but is bounded — the generator uses shared
// shadowing with small per-node offsets.
func TestAsymmetryBounded(t *testing.T) {
	tb := genIndriya(t)
	asym := 0
	links := 0
	n := tb.NumNodes()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p1, p2 := tb.PRR(u, v, 0), tb.PRR(v, u, 0)
			if p1 > 0 || p2 > 0 {
				links++
				if math.Abs(p1-p2) > 0.05 {
					asym++
				}
			}
		}
	}
	if links == 0 {
		t.Fatal("no links at all")
	}
	frac := float64(asym) / float64(links)
	if frac == 0 {
		t.Error("expected some asymmetric links (per-node offsets)")
	}
	if frac > 0.8 {
		t.Errorf("too many asymmetric links: %.0f%%", frac*100)
	}
}

func TestQuickGenerateAlwaysValid(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.NumNodes = 12
	prop := func(seed int64) bool {
		tb, err := Generate(cfg, seed)
		if err != nil {
			return false
		}
		for u := 0; u < 12; u++ {
			for v := 0; v < 12; v++ {
				p := tb.PRR(u, v, 3)
				if p < 0 || p > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGenerateIndriya(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Indriya(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateWUSTL(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := WUSTL(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPlacementVariants(t *testing.T) {
	base := DefaultGenConfig()
	base.NumNodes = 30
	for _, tc := range []struct {
		name      string
		placement Placement
	}{
		{"grid", PlacementGrid},
		{"corridor", PlacementCorridor},
		{"uniform", PlacementUniform},
	} {
		cfg := base
		cfg.Placement = tc.placement
		tb, err := Generate(cfg, 5)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tb.NumNodes() != 30 {
			t.Fatalf("%s: %d nodes", tc.name, tb.NumNodes())
		}
		for _, nd := range tb.Nodes {
			if nd.X < -cfg.FloorWidthM*0.3 || nd.X > cfg.FloorWidthM*1.3 ||
				nd.Y < -2 || nd.Y > cfg.FloorDepthM+2 {
				t.Errorf("%s: node %d outside the floor: (%v, %v)", tc.name, nd.ID, nd.X, nd.Y)
			}
		}
	}
	// Corridor layout concentrates Y coordinates on two lines.
	cfg := base
	cfg.Placement = PlacementCorridor
	tb, err := Generate(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[int]int{}
	for _, nd := range tb.Nodes {
		distinct[int(nd.Y/5)]++
	}
	if len(distinct) > 4 {
		t.Errorf("corridor placement spread across %d Y-bands, want ≤4", len(distinct))
	}
}
