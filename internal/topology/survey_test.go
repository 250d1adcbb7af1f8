package topology

import (
	"math"
	"testing"

	"wsan/internal/radio"
)

// refMeasuredPRR is a verbatim copy of measuredPRR as it was before the
// survey table, the reference every table lookup must match bit for bit.
func refMeasuredPRR(cfg GenConfig, rxDBm float64) float64 {
	snr := rxDBm - cfg.NoiseFloorDBm
	var prr float64
	if cfg.TemporalFadeSigmaDB > 0 {
		// E[PRR(snr + X)], X ~ N(0, σ²), via Gauss-Hermite quadrature:
		// substitute x = √2·σ·t so the weights integrate exp(-t²).
		const sqrtPi = 1.7724538509055160
		for _, nw := range gaussHermite7 {
			x := math.Sqrt2 * cfg.TemporalFadeSigmaDB * nw[0]
			prr += nw[1] * radio.PRR802154(snr+x, cfg.PacketBits)
		}
		prr /= sqrtPi
	} else {
		prr = radio.PRR802154(snr, cfg.PacketBits)
	}
	if cfg.ProbeCount > 0 {
		prr = math.Round(prr*float64(cfg.ProbeCount)) / float64(cfg.ProbeCount)
	}
	if prr < cfg.MeasurementFloor {
		return 0
	}
	if prr > 1 {
		return 1
	}
	return prr
}

// sameFloat reports whether a and b are the same float64, NaNs included.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkSurvey fails the test unless the table and measuredPRR both return
// the reference value at x.
func checkSurvey(t testing.TB, tab *surveyTable, x float64) {
	t.Helper()
	want := refMeasuredPRR(tab.cfg, x)
	if got := tab.prr(x); !sameFloat(got, want) {
		t.Fatalf("survey table at %v (%b): %v, reference %v", x, math.Float64bits(x), got, want)
	}
	if got := tab.cfg.measuredPRR(x); !sameFloat(got, want) {
		t.Fatalf("measuredPRR at %v: %v, reference %v", x, got, want)
	}
}

// surveyVariants are the receiver settings the dense walk covers beyond
// the presets': no fading, an ACK-length probe, a finer survey, a survey
// without quantization, and one without a floor either (no step certified).
func surveyVariants() map[string]GenConfig {
	base := DefaultGenConfig()
	out := map[string]GenConfig{"default": base}
	add := func(name string, edit func(*GenConfig)) {
		cfg := base
		edit(&cfg)
		out[name] = cfg
	}
	add("no-fading", func(c *GenConfig) { c.TemporalFadeSigmaDB = 0 })
	add("ack-bits", func(c *GenConfig) { c.PacketBits = radio.AckBits; c.NoiseFloorDBm = -100 })
	add("fine", func(c *GenConfig) { c.ProbeCount = 1000; c.MeasurementFloor = 0.05; c.TemporalFadeSigmaDB = 6 })
	add("unquantized", func(c *GenConfig) { c.ProbeCount = 0 })
	add("continuous", func(c *GenConfig) { c.ProbeCount = 0; c.MeasurementFloor = 0 })
	return out
}

// TestSurveyTableBreakpoints is the survey table's proof obligation, run
// densely against the verbatim reference. For each receiver setting it
// walks ±2000 ulps around every segment edge (where a step meets a guard
// band) and every breakpoint (a guard band's midpoint); it checks that the
// reference is constant at 64 interior points of every certified step and
// at points reaching out to ±1e300 in the tails, and that it never
// decreases across all those points in order. The presets must certify
// every step. Every setting but the presets' walks every 50th ulp; -short
// walks every 400th and samples 8 interior points.
func TestSurveyTableBreakpoints(t *testing.T) {
	for name, cfg := range surveyVariants() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tab := newSurveyTable(cfg)
			if name == "default" {
				for i, v := range tab.vals {
					if math.IsNaN(v) != (i%2 == 1) {
						t.Fatalf("segment %d is %v: every step must be certified and every guard band exact", i, v)
					}
				}
				if got := len(tab.vals); got != 143 {
					t.Errorf("%d segments, want 71 breakpoints' worth (143)", got)
				}
			}
			ulpStep, interior := 1, 64
			if name != "default" {
				ulpStep = 50
			}
			if testing.Short() {
				ulpStep, interior = 400, 8
			}
			walk := func(x float64) {
				up, down := x, x
				checkSurvey(t, tab, x)
				for i := ulpStep; i <= 2000; i += ulpStep {
					for range ulpStep {
						up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
					}
					checkSurvey(t, tab, up)
					checkSurvey(t, tab, down)
				}
			}
			for i, e := range tab.edges[:len(tab.edges)-1] {
				walk(e)
				if math.IsNaN(tab.vals[i+1]) {
					walk(e + (tab.edges[i+1]-e)/2)
				}
			}

			// Sample points in ascending order: tails, step interiors and
			// guard midpoints.
			var xs []float64
			lo, hi := tab.edges[0], tab.edges[len(tab.edges)-1]
			if len(tab.edges) > 1 {
				hi = tab.edges[len(tab.edges)-2]
			}
			xs = append(xs, math.Inf(-1))
			for k := 300; k >= -3; k-- {
				xs = append(xs, lo-math.Pow(10, float64(k)))
			}
			for i := 1; i < len(tab.edges)-1; i++ {
				a, b := tab.edges[i-1], tab.edges[i]
				for j := 1; j <= interior; j++ {
					xs = append(xs, a+(b-a)*float64(j)/float64(interior+1))
				}
			}
			for k := -3; k <= 300; k++ {
				xs = append(xs, hi+math.Pow(10, float64(k)))
			}
			xs = append(xs, math.Inf(1))
			prev := 0.0
			for _, x := range xs {
				p := refMeasuredPRR(cfg, x)
				if p < prev {
					t.Fatalf("reference falls from %v to %v at %v", prev, p, x)
				}
				prev = p
				if v := tab.vals[tab.find(x)]; !math.IsNaN(v) && v != p {
					t.Fatalf("step value %v at %v, reference %v", v, x, p)
				}
				checkSurvey(t, tab, x)
			}
		})
	}
}

// TestSurveyTableCoversPresets pins the table's speed-up: on the presets'
// testbeds no link falls into a guard band or an uncertified step, and the
// survey equals the reference link by link.
func TestSurveyTableCoversPresets(t *testing.T) {
	for _, cfg := range []GenConfig{IndriyaConfig(), WUSTLConfig()} {
		tab := newSurveyTable(cfg)
		for seed := int64(1); seed <= 3; seed++ {
			tb, err := Generate(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range tb.gain {
				if math.IsInf(g, -1) {
					continue
				}
				if math.IsNaN(tab.vals[tab.find(g)]) {
					t.Errorf("%s seed %d: link gain %v falls back to the BER series", cfg.Name, seed, g)
				}
				if seed == 1 && !sameFloat(tb.prr[i], refMeasuredPRR(cfg, g)) {
					t.Fatalf("%s seed 1: PRR %v at gain %v, reference %v", cfg.Name, tb.prr[i], g, refMeasuredPRR(cfg, g))
				}
			}
		}
	}
}

// FuzzSurveyPRR compares the survey table with the verbatim reference for
// random receiver settings, at a random power and at a random ulp offset
// from one of the table's edges. Any setting is fair: outside the proof's
// premises the table must answer exactly. The frame length and probe count
// are folded into ranges that straddle the table's limits, so most inputs
// build a real table.
func FuzzSurveyPRR(f *testing.F) {
	d := DefaultGenConfig()
	f.Add(d.NoiseFloorDBm, d.TemporalFadeSigmaDB, d.MeasurementFloor, d.PacketBits, d.ProbeCount, -90.0, uint16(0), int16(0))
	f.Add(d.NoiseFloorDBm, d.TemporalFadeSigmaDB, d.MeasurementFloor, d.PacketBits, d.ProbeCount, -160.0, uint16(7), int16(-3))
	f.Add(-100.0, 0.0, 0.3, radio.AckBits, 100, -99.0, uint16(3), int16(1))
	f.Add(-95.0, 3.5, 0.0, 400, 0, -96.0, uint16(1), int16(0))
	f.Add(-95.0, 3.5, 0.3, 400, 0, -96.0, uint16(1), int16(-1))
	f.Add(-95.0, 8.0, 0.0, 40, 1000, -120.0, uint16(500), int16(2000))
	f.Add(-95.0, 3.5, 0.0, 8, 128, -300.0, uint16(0), int16(0))
	f.Add(math.NaN(), 3.5, 0.3, 400, 100, -90.0, uint16(0), int16(0))
	f.Add(-95.0, 3.5, 0.3, 400, 100, math.NaN(), uint16(0), int16(0))
	f.Add(1e300, 1e300, 0.3, 400, 100, 1e300, uint16(0), int16(0))
	f.Fuzz(func(t *testing.T, noise, sigma, floor float64, bits, probes int, rx float64, edge uint16, ulps int16) {
		cfg := d
		cfg.NoiseFloorDBm, cfg.TemporalFadeSigmaDB, cfg.MeasurementFloor = noise, sigma, floor
		cfg.PacketBits, cfg.ProbeCount = int(uint(bits)%1100), int(uint(probes)%1200)
		tab := newSurveyTable(cfg)
		n := len(tab.edges)
		if n != len(tab.vals) || !math.IsInf(tab.edges[n-1], 1) {
			t.Fatalf("table edges %v, values %v", tab.edges, tab.vals)
		}
		for i := 1; i < n; i++ {
			if !(tab.edges[i-1] <= tab.edges[i]) {
				t.Fatalf("edges out of order at %d: %v", i, tab.edges)
			}
		}
		checkSurvey(t, tab, rx)
		e := tab.edges[int(edge)%n]
		x := math.Float64frombits(math.Float64bits(e) + uint64(int64(ulps)))
		checkSurvey(t, tab, x)
	})
}
