package radio

import (
	"math"
	"sync"
)

// Evaluate decides each frame as u < PRR for the frame's uniform draw u, and
// it seldom needs the PRR itself: a bound on it decides every draw outside
// a narrow band. The bounds come from one table per frame length the
// simulator sends (DefaultPacketBits for DATA, AckBits for ACK), built once
// per process on first use.
//
// A frame is keyed by its linear SINR ratio r = signalMW/den. The table
// covers r ∈ [2⁻⁴, 2³) (−12 to +9 dB) in cells that split every octave
// into 2^prrCellBits equal steps, so the cell of r is its float64 exponent
// and top mantissa bits, Float64bits(r) >> (52 − prrCellBits), less the
// index of 2⁻⁴: a log-spaced grid without a log call. Cell k covers
// [a_k, b_k) and stores
//
//	lo[k] = f(a_k·(1 − prrRatioTol)) − prrEps
//	hi[k] = f(b_k·(1 + prrRatioTol)) + prrEps
//
// where f(r) = PRR802154(MilliwattsToDBm(r), bits) is the PRR Evaluate has
// always computed for a frame of ratio r. The key is computed with one Exp,
// as exp(signalDBm·ln10/10)/den, rather than Pow's Log and Exp. The frame's
// PRR is f(r') for the Pow-based ratio r', so the bounds must hold for r'.
// Three facts make them hold:
//
//   - r and r' agree within prrRatioTol relative for |signalDBm| ≤
//     prrMaxFastDBm. Both exponents, s·fl(ln10/10) and fl(s/10)·ln10, are
//     at most 69 in magnitude and off by a few of its ulps, ~2e-14, and
//     Exp, Pow and the two divisions add a few ulps more; a dense sweep
//     measures 1.4e-14. So r in cell k puts r' in
//     [a_k·(1 − prrRatioTol), b_k·(1 + prrRatioTol)].
//   - The exact PRR is nondecreasing in r, and f stays within prrEps/4 of
//     it. The alternating BER series loses up to 16 ulps of Σ|terms| ≤ 2¹⁶
//     to rounding, but its terms are only that large at small γ, where
//     BER ≈ 0.5 and the PRR is below 1e-40 whatever the error; where the
//     PRR moves, Σ|terms| is a few hundred at most. (1 − BER)^bits and the
//     dB round trip add a few ulps times bits. Dense ulp walks along the
//     whole range find f falling by 3e-14 at most, far below prrEps/2;
//     TestPRRDecisionBounds checks the walks around every cell edge.
//   - Hence for every r' a frame in cell k can produce, lo[k] ≤ f(r') ≤
//     hi[k] with prrEps/2 to spare, so u < lo[k] decodes and u ≥ hi[k]
//     loses exactly as u < f(r') would.
//
// Below the table the frame is lost for any u ≥ hi[0]: f is below 1e-44
// there and hi[0] is about prrEps. From prrSatRatio up the frame decodes,
// because r' ≥ 10^0.7 gives a SINR of at least PRRSaturationDB and a PRR
// of exactly 1. Everything else runs the exact PRR with the Pow-based
// ratio: a draw inside the band, NaN or infinite ratios, a |signalDBm|
// above the guard and frame lengths without a table. Only that fallback
// evaluates the BER series; it ran on 0.04 % of the frames that reached
// the table in the 50-flow observe-repair benchmark.
//
// f consumes no randomness, so drawing u before the comparison leaves the
// random stream exactly as it was.

const (
	// prrCellBits is log2 of the cells per octave.
	prrCellBits = 7
	// prrMinExp and prrMaxExp bound the table: r ∈ [2^prrMinExp, 2^prrMaxExp).
	prrMinExp, prrMaxExp = -4, 3
	prrCells             = (prrMaxExp - prrMinExp) << prrCellBits
	// prrCellBase is Float64bits(2^prrMinExp) >> (52 − prrCellBits).
	prrCellBase = (1023 + prrMinExp) << prrCellBits
	// prrMinRatio is the lowest ratio the table covers, 2^prrMinExp.
	prrMinRatio = 1.0 / (1 << -prrMinExp)
	// prrEps pads every cell bound against the rounding of f.
	prrEps = 1e-9
	// prrRatioTol bounds the relative gap between the Exp- and Pow-based
	// ratios inside the guard.
	prrRatioTol = 1e-12
	// prrMaxFastDBm guards the Exp-based ratio: beyond it the exponent's
	// absolute error would grow past prrRatioTol's budget.
	prrMaxFastDBm = 300
	// nepersPerDB converts dBm to the natural log of milliwatts.
	nepersPerDB = math.Ln10 / 10
)

// prrSatRatio is the Exp-based ratio from which a frame certainly decodes:
// 10^(PRRSaturationDB/10), raised by 1e-9 relative to absorb prrRatioTol
// and the rounding of Pow and Log10.
var prrSatRatio = math.Pow(10, PRRSaturationDB/10) * (1 + 1e-9)

// prrCell bounds the PRR of every frame whose ratio falls in one cell.
type prrCell struct{ lo, hi float64 }

// prrBounds holds the cell tables for the two frame lengths the simulator
// sends: 2 × 896 cells of 16 bytes, 28 KB.
type prrBounds struct {
	data, ack [prrCells]prrCell
}

// prrTables returns the process's bound tables, building them on first use.
var prrTables = sync.OnceValue(newPRRBounds)

func newPRRBounds() *prrBounds {
	b := new(prrBounds)
	for _, bits := range [...]int{DefaultPacketBits, AckBits} {
		cells := b.table(bits)
		for k := range cells {
			a, z := prrCellEdges(k)
			cells[k] = prrCell{
				lo: ratioPRR(a*(1-prrRatioTol), bits) - prrEps,
				hi: ratioPRR(z*(1+prrRatioTol), bits) + prrEps,
			}
		}
	}
	return b
}

// table returns the cells for a frame length, or nil when it has none.
func (b *prrBounds) table(bits int) *[prrCells]prrCell {
	switch bits {
	case DefaultPacketBits:
		return &b.data
	case AckBits:
		return &b.ack
	}
	return nil
}

// prrCellEdges returns the ratios [a, b) cell k covers.
func prrCellEdges(k int) (a, b float64) {
	return math.Float64frombits(uint64(prrCellBase+k) << (52 - prrCellBits)),
		math.Float64frombits(uint64(prrCellBase+k+1) << (52 - prrCellBits))
}

// ratioPRR is the PRR of a frame with linear SINR ratio r.
func ratioPRR(r float64, bits int) float64 {
	return PRR802154(MilliwattsToDBm(r), bits)
}

// bounds returns lo ≤ hi with lo ≤ ratioPRR(DBmToMilliwatts(signalDBm)/den,
// bits) ≤ hi, or ok false when the tables cannot bound that PRR.
func (b *prrBounds) bounds(signalDBm, den float64, bits int) (lo, hi float64, ok bool) {
	cells := b.table(bits)
	if cells == nil || !(math.Abs(signalDBm) <= prrMaxFastDBm) {
		return 0, 0, false
	}
	r := math.Exp(signalDBm*nepersPerDB) / den
	if r >= prrSatRatio {
		return 1, 1, r <= math.MaxFloat64
	}
	if k := math.Float64bits(r)>>(52-prrCellBits) - prrCellBase; k < prrCells {
		c := &cells[k]
		return c.lo, c.hi, true
	}
	// Below the table, or NaN.
	return 0, cells[0].hi, r < prrMinRatio
}

// decodes reports whether a frame with draw u ∈ [0,1) decodes, exactly as
// u < ratioPRR(DBmToMilliwatts(signalDBm)/den, bits), evaluating the PRR only
// when u falls between the bounds.
func (b *prrBounds) decodes(u, signalDBm, den float64, bits int) bool {
	if lo, hi, ok := b.bounds(signalDBm, den, bits); ok {
		if u < lo {
			return true
		}
		if u >= hi {
			return false
		}
	}
	return u < ratioPRR(DBmToMilliwatts(signalDBm)/den, bits)
}
