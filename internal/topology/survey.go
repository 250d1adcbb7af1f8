package topology

import (
	"math"

	"wsan/internal/radio"
)

// A link survey records measuredPRR for every directed link on every
// channel, 101 120 values for Indriya, and each one averages seven BER
// series. Yet measuredPRR is a step function of the received power x: it
// rounds the fade-averaged PRR to 1/ProbeCount and zeroes it below
// MeasurementFloor, so at the presets' settings it takes 72 values (0 and
// 0.30 … 1.00) across 71 breakpoints. surveyTable finds those steps once
// per Generate or Custom call and answers a link with a binary search.
//
// Write g(x) for the computed fadedPRR and q(x) = quantize(g(x)) for
// measuredPRR. A step [a, b] is certified from g(a) and g(b) alone:
//
//   - The exact fade-averaged PRR is nondecreasing in x: it is a positively
//     weighted sum of shifted copies of (1 − BER)^bits, and the DSSS BER
//     falls as the SINR grows.
//   - The computed g stays within surveyTol/2 of it in the sense that
//     matters: for a ≤ x ≤ b, g(a) − surveyTol ≤ g(x) ≤ g(b) + surveyTol.
//     The subtractions x − NoiseFloorDBm and snr + √2·σ·t round
//     monotonically. PRR802154 falls by 3e-14 at most along dense ulp walks
//     at 208 and 400 bits (prrbound.go), an error that grows with the frame
//     length and stays under 1e-13 up to maxFrameBits. The BER series'
//     cancellation at small γ is large only where the PRR is near 0.5^bits,
//     below 1e-12 from minFrameBits up. The weights sum to √π, so the
//     seven-term average adds only a few ulps of 1.
//   - quantize is nondecreasing.
//
// Hence quantize(g(a) − surveyTol) ≤ q(x) ≤ quantize(g(b) + surveyTol) on
// [a, b], and when the two bounds are equal q is that one value across the
// step. The table stores it as q(b); every x in the step then yields the
// same float, and a zero is +0 because g ≥ 0.
//
// The tails are steps too, since fadedPRR is finite at ±Inf. From top =
// NoiseFloorDBm + PRRSaturationDB + √2·σ·max|t| up, every quadrature term
// sits at a SINR of at least PRRSaturationDB, less a few ulps of rounding,
// where PRR802154 is exactly 1 (phy.go). So g is exactly g(+Inf) there, and
// the top step extends to +∞ at that value, computed once. At −∞ every term
// is the PRR at γ = 0, about 0.5^bits, so g(−∞) − surveyTol quantizes to 0
// whenever ProbeCount or MeasurementFloor is positive. Monotonicity then
// keeps the step below the lowest breakpoint at 0 all the way down, which is
// where most links of a large testbed fall.
//
// The breakpoints are found by bisecting q over [NoiseFloorDBm − √2·σ·max|t|
// − surveyTailDB, top] to brackets no wider than surveyGuardDB, and each
// step begins and ends surveyGuardDB outside its brackets, so g has moved
// off the rounding threshold by far more than surveyTol: at the presets'
// breakpoints g moves by over 1e-9 across the guard. The search only places
// the steps; the certificate is what proves them. A step that fails it (a
// breakpoint outside the search range, breakpoints closer than the guard,
// values whose ulp exceeds the guard) is answered by measuredPRR, as are
// the guard bands themselves and NaN. So is everything when the survey is
// not a step function: with ProbeCount 0 (or above maxSurveyProbes, too
// fine to tabulate) only the jump at the floor is bracketed, the values
// above it are not constant, and with MeasurementFloor 0 as well no step is
// certified at all. Configurations outside the proof's premises (frame
// lengths outside [minFrameBits, maxFrameBits], a non-finite noise floor or
// fading spread) get the exact function everywhere.
//
// TestSurveyTableBreakpoints walks every step edge ±2000 ulps against a
// verbatim copy of the original measuredPRR and checks monotonicity between
// breakpoints; FuzzSurveyPRR compares the table with it on random powers and
// receiver settings.

const (
	// surveyGuardDB is the width of a breakpoint's bracket and the gap
	// between a bracket and the steps either side of it.
	surveyGuardDB = 1e-6
	// surveyTol bounds how far the computed fadedPRR can fall as its
	// argument rises.
	surveyTol = 1e-12
	// surveyTailDB is how far below the noise floor, past the strongest
	// quadrature fade, the breakpoint search begins.
	surveyTailDB = 20
	// maxSurveyProbes is the finest quantization the table resolves step by
	// step; it bounds the bisection's work.
	maxSurveyProbes = 1000
	// minFrameBits and maxFrameBits bound the frame lengths the proof
	// covers: an 802.15.4 ACK (5 octets) up to aMaxPHYPacketSize (127).
	minFrameBits, maxFrameBits = 5 * 8, 127 * 8
)

// surveyTable answers measuredPRR for one GenConfig from its steps.
type surveyTable struct {
	cfg GenConfig
	// edges ascend and end at +Inf; vals[i] is measuredPRR on
	// (edges[i−1], edges[i]], or NaN where measuredPRR itself must answer.
	edges, vals []float64
}

// newSurveyTable finds and certifies cfg's survey steps.
func newSurveyTable(cfg GenConfig) *surveyTable {
	t := &surveyTable{cfg: cfg, edges: []float64{math.Inf(1)}, vals: []float64{math.NaN()}}
	spread := 0.0
	if cfg.TemporalFadeSigmaDB > 0 {
		spread = math.Sqrt2 * cfg.TemporalFadeSigmaDB * gaussHermite7[len(gaussHermite7)-1][0]
	}
	top := cfg.NoiseFloorDBm + radio.PRRSaturationDB + spread
	bottom := cfg.NoiseFloorDBm - spread - surveyTailDB
	finite := !math.IsInf(top, 0) && !math.IsNaN(top) && !math.IsInf(bottom, 0)
	if !finite || cfg.PacketBits < minFrameBits || cfg.PacketBits > maxFrameBits {
		return t
	}
	level := cfg.measuredPRR
	if cfg.ProbeCount <= 0 || cfg.ProbeCount > maxSurveyProbes {
		level = func(x float64) float64 {
			if cfg.measuredPRR(x) == 0 {
				return 0
			}
			return 1
		}
	}
	// brackets holds [lo, hi] pairs, ascending, with level(lo) ≠ level(hi).
	var brackets []float64
	var bisect func(a, b, la, lb float64)
	bisect = func(a, b, la, lb float64) {
		if la == lb {
			return
		}
		mid := a + (b-a)/2
		if b-a <= surveyGuardDB || mid <= a || mid >= b {
			brackets = append(brackets, a, b)
			return
		}
		lm := level(mid)
		bisect(a, mid, la, lm)
		bisect(mid, b, lm, lb)
	}
	bisect(bottom, top, level(bottom), level(top))

	t.edges, t.vals = t.edges[:0], t.vals[:0]
	a := math.Inf(-1)
	for k := 0; k <= len(brackets)/2; k++ {
		b := math.Inf(1)
		if 2*k < len(brackets) {
			b = brackets[2*k] - surveyGuardDB
		}
		if a <= b {
			if k > 0 {
				t.add(a, math.NaN()) // the guard band before this step
			}
			t.add(b, t.step(a, b))
		}
		if 2*k < len(brackets) {
			a = brackets[2*k+1] + surveyGuardDB
		}
	}
	return t
}

// step returns measuredPRR's value on [a, b] when the certificate proves it
// constant there, and NaN otherwise.
func (t *surveyTable) step(a, b float64) float64 {
	ga, gb := t.cfg.fadedPRR(a), t.cfg.fadedPRR(b)
	v := t.cfg.quantize(gb)
	if t.cfg.quantize(ga-surveyTol) != v || t.cfg.quantize(gb+surveyTol) != v {
		return math.NaN()
	}
	return v
}

// add appends the segment ending at end, merging runs of NaN.
func (t *surveyTable) add(end, v float64) {
	if n := len(t.vals); n > 0 && math.IsNaN(t.vals[n-1]) && math.IsNaN(v) {
		t.edges[n-1] = end
		return
	}
	t.edges = append(t.edges, end)
	t.vals = append(t.vals, v)
}

// prr returns cfg.measuredPRR(rxDBm), bit for bit.
func (t *surveyTable) prr(rxDBm float64) float64 {
	if !math.IsNaN(rxDBm) {
		if v := t.vals[t.find(rxDBm)]; !math.IsNaN(v) {
			return v
		}
	}
	return t.cfg.measuredPRR(rxDBm)
}

// find returns the index of the segment holding rxDBm, which is not NaN:
// the first edge at or above it (the last edge is +Inf).
func (t *surveyTable) find(rxDBm float64) int {
	i, j := 0, len(t.edges)-1
	for i < j {
		h := int(uint(i+j) >> 1)
		if t.edges[h] < rxDBm {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}
