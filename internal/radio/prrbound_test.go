package radio

import (
	"fmt"
	"math"
	"testing"
)

// refRatioPRR is the reference PRR of a frame with linear SINR ratio r.
func refRatioPRR(r float64, bits int) float64 {
	return refPRR802154(MilliwattsToDBm(r), bits)
}

// TestPRRDecisionBounds is the bound tables' proof obligation, run densely
// against the verbatim reference PRR. For both frame lengths and every
// cell, lo ≤ PRR ≤ hi holds at 64 interior ratios and within ±2000 ulps of
// both cell edges, each point also scaled by 1 ± prrRatioTol; along those
// ulp walks and across the interior points the PRR never falls by
// prrEps/2 or more; every ratio below the table, down to zero and negative
// ratios, stays at or under the first cell's upper bound. Two subtests
// check the ratio the tables are keyed by: the saturation shortcut and the
// Exp-versus-Pow tolerance. -short thins every sweep.
func TestPRRDecisionBounds(t *testing.T) {
	t.Run("saturation", checkSaturationRatio)
	t.Run("exp-vs-pow", checkRatioExpVsPow)
	ulps, ulpStep, interior := 2000, 1, 64
	if testing.Short() {
		ulpStep, interior = 50, 8
	}
	for _, bits := range []int{DefaultPacketBits, AckBits} {
		cells := prrTables().table(bits)
		t.Run(fmt.Sprint(bits, " bits"), func(t *testing.T) {
			t.Parallel()
			// check returns the reference PRR at r and fails the test unless
			// it, and the PRRs at r·(1 ± prrRatioTol), lie within the bounds
			// of cells k0 through k1 (clipped to the table).
			check := func(r float64, k0, k1 int) float64 {
				t.Helper()
				var p [3]float64
				for i, x := range [3]float64{r, r * (1 - prrRatioTol), r * (1 + prrRatioTol)} {
					p[i] = refRatioPRR(x, bits)
				}
				for k := max(k0, 0); k <= min(k1, prrCells-1); k++ {
					for _, q := range p {
						if c := cells[k]; !(c.lo <= q && q <= c.hi) {
							t.Fatalf("cell %d: PRR near %v = %v outside [%v, %v]", k, r, q, c.lo, c.hi)
						}
					}
				}
				return p[0]
			}
			// falls fails the test when the PRR drops by prrEps/2 or more
			// from pa at ratio a to pb at a larger ratio b.
			falls := func(a, pa, b, pb float64) {
				t.Helper()
				if pa-pb >= prrEps/2 {
					t.Fatalf("PRR falls from %v at %v to %v at %v", pa, a, pb, b)
				}
			}
			prev, pPrev := 0.0, refRatioPRR(0, bits)
			for k := range cells {
				a, z := prrCellEdges(k)
				for i := 1; i <= interior; i++ {
					r := a + (z-a)*float64(i)/float64(interior+1)
					p := check(r, k, k)
					falls(prev, pPrev, r, p)
					prev, pPrev = r, p
				}
			}
			// Cell k−1 ends where cell k begins; 2000 ulps are under
			// 5e-13 relative, inside both cells' tolerance.
			for k := 0; k <= prrCells; k++ {
				edge, _ := prrCellEdges(k)
				up, down := edge, edge
				pUp := check(edge, k-1, k)
				pDown := pUp
				for i := ulpStep; i <= ulps; i += ulpStep {
					nextUp, nextDown := up, down
					for range ulpStep {
						nextUp, nextDown = math.Nextafter(nextUp, math.Inf(1)), math.Nextafter(nextDown, 0)
					}
					p := check(nextUp, k-1, k)
					falls(up, pUp, nextUp, p)
					up, pUp = nextUp, p
					p = check(nextDown, k-1, k)
					falls(nextDown, p, down, pDown)
					down, pDown = nextDown, p
				}
			}
			hi0 := cells[0].hi
			below := []float64{0, math.Copysign(0, -1), -1, math.Inf(-1),
				math.SmallestNonzeroFloat64, 0x1p-1022}
			for r := prrMinRatio; r > 1e-320; r /= 1.09 {
				below = append(below, math.Nextafter(r, 0))
			}
			for _, r := range below {
				if p := refRatioPRR(r, bits); !(p <= hi0) {
					t.Fatalf("PRR(%v) = %v above the first cell's bound %v", r, p, hi0)
				}
			}
		})
	}
}

// checkSaturationRatio checks that the ratio from which a frame decodes
// outright, lowered by the Exp-versus-Pow tolerance, still maps to a SINR
// of at least PRRSaturationDB, where the PRR is exactly 1.
func checkSaturationRatio(t *testing.T) {
	r := prrSatRatio * (1 - prrRatioTol)
	if sinr := MilliwattsToDBm(r); sinr < PRRSaturationDB {
		t.Fatalf("saturation ratio %v maps to %v dB, below %v dB", r, sinr, PRRSaturationDB)
	}
	for _, bits := range []int{AckBits, DefaultPacketBits} {
		if p := refRatioPRR(r, bits); p != 1 {
			t.Fatalf("reference PRR at the saturation ratio = %v for %d bits, want 1", p, bits)
		}
	}
}

// checkRatioExpVsPow checks that the Exp-based ratio the tables are keyed
// by stays within prrRatioTol of the Pow-based ratio the PRR is computed
// from, across the whole guarded dBm range and several denominators.
func checkRatioExpVsPow(t *testing.T) {
	step := 1e-3
	if testing.Short() {
		step = 1e-1
	}
	dens := []float64{1, DBmToMilliwatts(DefaultNoiseFloorDBm), 3.7e-7, 2.5e3}
	check := func(s float64) {
		for _, den := range dens {
			re, rp := math.Exp(s*nepersPerDB)/den, DBmToMilliwatts(s)/den
			if d := math.Abs(re/rp - 1); !(d <= prrRatioTol) {
				t.Fatalf("signal %v dBm, den %v: Exp ratio %v, Pow ratio %v, relative gap %v",
					s, den, re, rp, d)
			}
		}
	}
	for i := 0; ; i++ {
		s := -prrMaxFastDBm + float64(i)*step
		if s > prrMaxFastDBm {
			break
		}
		check(s)
	}
	for _, edge := range []float64{-prrMaxFastDBm, prrMaxFastDBm} {
		s := edge
		for range 1000 {
			check(s)
			s = math.Nextafter(s, 0)
		}
	}
}

// TestPRRDecisionInBand drives the exact fallback on purpose. A random
// slot's draw almost never lands between a cell's bounds, but a draw equal
// to the frame's reference PRR, or one float above or below it, always
// does; the decision must still equal u < PRR.
func TestPRRDecisionInBand(t *testing.T) {
	b := prrTables()
	noise := DBmToMilliwatts(DefaultNoiseFloorDBm)
	const n = 10000
	for _, bits := range []int{DefaultPacketBits, AckBits} {
		inBand := 0
		for i := 0; i < n; i++ {
			// SINRs from −12 to +6 dB: across the table, saturation excluded.
			den := noise * float64(1+i%7)
			s := MilliwattsToDBm(den) - 12 + 18*float64(i)/n
			p := refPRR802154(MilliwattsToDBm(DBmToMilliwatts(s)/den), bits)
			lo, hi, ok := b.bounds(s, den, bits)
			if !ok {
				t.Fatalf("%d bits, signal %v dBm, den %v: no bounds inside the table", bits, s, den)
			}
			for _, u := range []float64{math.Nextafter(p, 0), p, math.Nextafter(p, 1)} {
				if u < 0 || u >= 1 {
					continue
				}
				if !(lo <= u && u < hi) {
					t.Fatalf("%d bits, signal %v dBm: draw %v outside the band [%v, %v)", bits, s, u, lo, hi)
				}
				inBand++
				if got, want := b.decodes(u, s, den, bits), u < p; got != want {
					t.Fatalf("%d bits, signal %v dBm, den %v, draw %v: decodes = %v, want %v (PRR %v)",
						bits, s, den, u, got, want, p)
				}
			}
		}
		if inBand < 2*n {
			t.Fatalf("%d bits: only %d in-band draws", bits, inBand)
		}
	}
	// Inputs the tables do not cover take the exact path.
	for _, c := range []struct {
		s    float64
		bits int
	}{
		{math.NaN(), DefaultPacketBits}, {math.Inf(1), AckBits}, {math.Inf(-1), AckBits},
		{math.Nextafter(prrMaxFastDBm, 400), DefaultPacketBits}, {-90, 1000}, {-90, 0},
	} {
		if _, _, ok := b.bounds(c.s, noise, c.bits); ok {
			t.Errorf("bounds(%v dBm, %d bits) claimed a bound", c.s, c.bits)
		}
	}
}

// FuzzPRRDecision checks the decision for any draw u ∈ [0,1), any signal
// (NaN and ±Inf included), any positive denominator (subnormal and +Inf
// included) and any frame length against u < reference PRR, and, wherever
// the tables claim bounds, that the reference PRR lies between them.
func FuzzPRRDecision(f *testing.F) {
	noise := DBmToMilliwatts(DefaultNoiseFloorDBm)
	for _, u := range []float64{0, 1e-12, 0.5, math.Nextafter(1, 0)} {
		for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -300, 300, 300.5, -95, -93, -89, -80} {
			for _, den := range []float64{noise, 4 * noise, math.SmallestNonzeroFloat64, 1, math.Inf(1)} {
				for _, bits := range []int{0, AckBits, DefaultPacketBits, 1000} {
					f.Add(u, s, den, bits)
				}
			}
		}
	}
	b := prrTables()
	f.Fuzz(func(t *testing.T, u, s, den float64, bits int) {
		if !(u >= 0 && u < 1) || !(den > 0) {
			return
		}
		p := refPRR802154(MilliwattsToDBm(DBmToMilliwatts(s)/den), bits)
		if lo, hi, ok := b.bounds(s, den, bits); ok && !(lo <= p && p <= hi) {
			t.Fatalf("bounds(%v dBm, den %v, %d bits) = [%v, %v], reference PRR %v", s, den, bits, lo, hi, p)
		}
		if got, want := b.decodes(u, s, den, bits), u < p; got != want {
			t.Fatalf("decodes(%v, %v dBm, den %v, %d bits) = %v, want %v (PRR %v)", u, s, den, bits, got, want, p)
		}
	})
}
