package radio

import (
	"math"
	"math/rand"
)

// GainFunc returns the mean received power in dBm at receiver rx when node tx
// transmits on the given physical channel index. It encapsulates transmit
// power, path loss, shadowing, and per-channel frequency-selective fading —
// everything static about a link. Temporal variation is added by Env.
type GainFunc func(tx, rx, channel int) float64

// InterferenceFunc returns additional external interference power in linear
// milliwatts observed at receiver rx on the given channel during the current
// slot (e.g., from a WiFi transmitter). A nil InterferenceFunc means no
// external interference.
type InterferenceFunc func(rx, channel int) float64

// Transmission is one DATA (or ACK) frame sent in a slot.
type Transmission struct {
	// Sender and Receiver are node IDs understood by the Env's GainFunc.
	Sender   int
	Receiver int
	// Channel is the physical channel index in [0,16).
	Channel int
	// Bits is the frame length in bits; zero means DefaultPacketBits.
	Bits int
}

// fadingState carries per-path AR(1) fading between Evaluate calls.
type fadingState map[[2]int32]float64

// Env evaluates the outcome of concurrent transmissions under an SINR model
// with cumulative interference. Concurrent transmissions on the same physical
// channel interfere with each other; the capture effect — a frame decoded
// successfully despite a concurrent sender — emerges naturally whenever the
// desired signal sufficiently dominates the interference sum.
//
// An Env is not safe for concurrent use: Evaluate reuses a fading scratch
// buffer and advances the AR(1) fading state held in the Env. Give each
// goroutine its own.
type Env struct {
	// NoiseFloorDBm is the receiver noise floor; zero means
	// DefaultNoiseFloorDBm.
	NoiseFloorDBm float64
	// FadingSigmaDB is the standard deviation of the per-slot lognormal
	// (Gaussian-in-dB) fading applied to every sender→receiver path. With
	// FadingCorrelation zero the samples are independent per slot; see
	// FadingCorrelation for bursty channels.
	FadingSigmaDB float64
	// FadingCorrelation ∈ [0,1) makes fading an AR(1) process per path:
	// f_{t+1} = ρ·f_t + √(1−ρ²)·N(0,σ). Real indoor links fade in bursts,
	// which weakens slot-adjacent retransmissions — the effect the TSCH
	// literature debates when sizing retry diversity. Zero keeps the
	// classic i.i.d. model.
	FadingCorrelation float64
	// InterferenceFactor scales interference power before the SINR
	// computation. The Gaussian-noise BER curve underestimates the impact of
	// structured (non-Gaussian) interference from concurrent 802.15.4 or
	// WiFi frames; PRR-SINR measurement studies account for this with an
	// effectiveness factor. Zero means DefaultInterferenceFactor.
	InterferenceFactor float64
	// Gain supplies mean link gains. Required.
	Gain GainFunc

	// fading holds AR(1) state, created lazily when FadingCorrelation > 0.
	fading fadingState
	// fade is Evaluate's per-slot path-fading scratch, n×n for n
	// transmissions, kept between calls.
	fade []float64
	// noiseDBm caches the noise floor noiseMW and cleanDB were derived from.
	noiseDBm, noiseMW float64
	// cleanDB is the signal-to-noise margin (dB) from which a frame without
	// interference is certain to decode; +Inf disables that shortcut.
	cleanDB float64
}

// cleanMarginDB pads PRRSaturationDB for the interference-free shortcut: the
// dBm difference signal − noise and the SINR computed through
// DBmToMilliwatts/MilliwattsToDBm differ only by rounding, a few ulps of
// relative power (≈1e-14 dB), far below this margin.
const cleanMarginDB = 1e-6

// DefaultInterferenceFactor (≈8 dB) places the PRR-vs-SIR transition in the
// 2–8 dB gray region that co-channel 802.15.4 interference measurements
// report (Maheshwari et al., SenSys'08): a frame at 0 dB SIR is lost, one
// with a 10–20 dB margin is captured.
const DefaultInterferenceFactor = 6.0

// interferenceFactor returns the configured or default factor.
func (e *Env) interferenceFactor() float64 {
	if e.InterferenceFactor == 0 {
		return DefaultInterferenceFactor
	}
	return e.InterferenceFactor
}

// noiseFloor returns the configured or default noise floor.
func (e *Env) noiseFloor() float64 {
	if e.NoiseFloorDBm == 0 {
		return DefaultNoiseFloorDBm
	}
	return e.NoiseFloorDBm
}

// noise returns the noise floor in dBm and milliwatts and the clean-frame
// margin, recomputing them only when the configured floor changes. The
// shortcut is sound only while the noise power is a normal, finite float64,
// so that the signal power above it neither underflows nor loses precision.
func (e *Env) noise() (dbm, mw, cleanDB float64) {
	if nf := e.noiseFloor(); nf != e.noiseDBm {
		e.noiseDBm, e.noiseMW = nf, DBmToMilliwatts(nf)
		e.cleanDB = math.Inf(1)
		if e.noiseMW >= 0x1p-1022 && e.noiseMW <= math.MaxFloat64 {
			e.cleanDB = PRRSaturationDB + cleanMarginDB
		}
	}
	return e.noiseDBm, e.noiseMW, e.cleanDB
}

// samplePathFading draws the next fading value for one sender→receiver
// path: i.i.d. when FadingCorrelation is zero, AR(1) otherwise.
func (e *Env) samplePathFading(rng *rand.Rand, tx, rx int) float64 {
	innov := rng.NormFloat64() * e.FadingSigmaDB
	rho := e.FadingCorrelation
	if rho <= 0 {
		return innov
	}
	if rho >= 1 {
		rho = 0.999
	}
	if e.fading == nil {
		e.fading = make(fadingState)
	}
	key := [2]int32{int32(tx), int32(rx)}
	next := rho*e.fading[key] + math.Sqrt(1-rho*rho)*innov
	e.fading[key] = next
	return next
}

// Evaluate decides, for each transmission, whether the receiver successfully
// decodes the frame, given all concurrent transmissions in the slot and any
// external interference. The decision is stochastic: the per-frame success
// probability is the 802.15.4 PRR at the realized SINR, sampled with rng.
//
// The outcomes are written into ok, which is grown when shorter than txs,
// and the result slice, parallel to txs, is returned: passing the previous
// result back in makes repeated calls allocation-free.
//
// Every frame draws exactly one rng.Float64 after the slot's fading draws,
// whatever its SINR, so the random stream does not depend on which frames
// take the shortcuts. Each frame's co-channel interference is summed once
// with one Exp per term inside ±prrMaxFastDBm (see coChannelMW), and that
// denominator keys the shortcuts: a frame with no interference whose signal
// clears the noise floor by PRRSaturationDB (plus cleanMarginDB) decodes
// without the SINR round trip, any other frame compares its draw with
// tabled bounds on its PRR (see prrBounds), and only a draw between them,
// or a frame the tables cannot bound, recomputes the sum with
// DBmToMilliwatts in the same order, with the same external term, and
// evaluates the BER series. PRR802154 returns 1 without the BER series
// above PRRSaturationDB. All of these give bit-identical outcomes to the
// full computation (the proof is at prrBounds). The recompute asks Gain for
// the interferers' powers again, which GainFunc's static contract makes
// safe; extra is called once per frame.
func (e *Env) Evaluate(rng *rand.Rand, txs []Transmission, extra InterferenceFunc, ok []bool) []bool {
	n := len(txs)
	if cap(ok) < n {
		ok = make([]bool, n)
	}
	ok = ok[:n]
	if n == 0 {
		return ok
	}
	// Realize per-path fading once per slot: fade[i*n+j] is the fading on
	// the path from txs[i].Sender to txs[j].Receiver. Sampling every
	// pairwise path keeps desired-signal and interference fading consistent.
	if cap(e.fade) < n*n {
		e.fade = make([]float64, n*n)
	}
	fade := e.fade[:n*n]
	if e.FadingSigmaDB > 0 {
		for i := range txs {
			for j := range txs {
				fade[i*n+j] = e.samplePathFading(rng, txs[i].Sender, txs[j].Receiver)
			}
		}
	} else {
		clear(fade)
	}
	noiseDBm, noiseMW, cleanDB := e.noise()
	factor := e.interferenceFactor()
	bounds := prrTables()
	for j, tx := range txs {
		signalDBm := e.Gain(tx.Sender, tx.Receiver, tx.Channel) + fade[j*n+j]
		extraMW := 0.0
		if extra != nil {
			extraMW = extra(tx.Receiver, tx.Channel)
		}
		// den is the SINR's denominator in mW: noise plus scaled
		// interference. When it equals the bare noise power the SINR is the
		// signal-to-noise ratio, which the dBm difference bounds without a
		// pow/log10 round trip. A negative external term or factor could
		// cancel the denominator past the tables' tolerance, so such a
		// frame keys them with the exact sum.
		den := noiseMW + (e.coChannelMW(txs, fade, j, !(extraMW >= 0 && factor >= 0))+extraMW)*factor
		// The PRR consumes no randomness, so drawing first keeps the stream.
		u := rng.Float64()
		if den == noiseMW && signalDBm-noiseDBm >= cleanDB {
			ok[j] = true // PRR is 1, and u < 1
			continue
		}
		bits := tx.Bits
		if bits == 0 {
			bits = DefaultPacketBits
		}
		if lo, hi, bounded := bounds.bounds(signalDBm, den, bits); bounded && (u < lo || u >= hi) {
			ok[j] = u < lo
			continue
		}
		den = noiseMW + (e.coChannelMW(txs, fade, j, true)+extraMW)*factor
		ok[j] = u < ratioPRR(DBmToMilliwatts(signalDBm)/den, bits)
	}
	return ok
}

// coChannelMW sums, in slot order, the power in mW that every other
// transmission on frame j's channel delivers at its receiver. The fast form
// takes each term as Exp(p·nepersPerDB) when |p| ≤ prrMaxFastDBm and as
// DBmToMilliwatts(p) otherwise, so dead (−Inf) and far-below-noise paths
// still add exactly 0; it keys the PRR tables. The exact form is
// DBmToMilliwatts throughout, the sum the PRR itself is computed from.
func (e *Env) coChannelMW(txs []Transmission, fade []float64, j int, exact bool) float64 {
	n := len(txs)
	rx, ch := txs[j].Receiver, txs[j].Channel
	sum := 0.0
	for i, other := range txs {
		if i == j || other.Channel != ch {
			continue
		}
		p := e.Gain(other.Sender, rx, ch) + fade[i*n+j]
		if !exact && math.Abs(p) <= prrMaxFastDBm {
			sum += math.Exp(p * nepersPerDB)
		} else {
			sum += DBmToMilliwatts(p)
		}
	}
	return sum
}
