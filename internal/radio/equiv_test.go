package radio

import (
	"math"
	"math/rand"
	"testing"
)

// The ref* functions are verbatim copies of the PHY before the saturation
// constant and Evaluate's shortcuts, kept as the oracle the shortcuts must
// reproduce bit for bit.

func refBER802154(sinrDB float64) float64 {
	gamma := math.Pow(10, sinrDB/10)
	sum := 0.0
	for k := 2; k <= 16; k++ {
		term := binom16[k] * math.Exp(20*gamma*(1/float64(k)-1))
		if k%2 == 0 {
			sum += term
		} else {
			sum -= term
		}
	}
	ber := (8.0 / 15.0) * (1.0 / 16.0) * sum
	if ber < 0 {
		return 0
	}
	if ber > 0.5 {
		return 0.5
	}
	return ber
}

func refPRR802154(sinrDB float64, packetBits int) float64 {
	ber := refBER802154(sinrDB)
	if ber == 0 {
		return 1
	}
	return math.Pow(1-ber, float64(packetBits))
}

func refSINRdB(signalDBm, noiseFloorDBm, interfMW float64) float64 {
	noiseMW := DBmToMilliwatts(noiseFloorDBm)
	signalMW := DBmToMilliwatts(signalDBm)
	return MilliwattsToDBm(signalMW / (noiseMW + interfMW))
}

func refEvaluate(e *Env, rng *rand.Rand, txs []Transmission, extra InterferenceFunc) []bool {
	ok := make([]bool, len(txs))
	if len(txs) == 0 {
		return ok
	}
	fade := make([][]float64, len(txs))
	for i := range txs {
		fade[i] = make([]float64, len(txs))
		for j := range txs {
			if e.FadingSigmaDB > 0 {
				fade[i][j] = e.samplePathFading(rng, txs[i].Sender, txs[j].Receiver)
			}
		}
	}
	for j, tx := range txs {
		signalDBm := e.Gain(tx.Sender, tx.Receiver, tx.Channel) + fade[j][j]
		interfMW := 0.0
		for i, other := range txs {
			if i == j || other.Channel != tx.Channel {
				continue
			}
			p := e.Gain(other.Sender, tx.Receiver, tx.Channel) + fade[i][j]
			interfMW += DBmToMilliwatts(p)
		}
		if extra != nil {
			interfMW += extra(tx.Receiver, tx.Channel)
		}
		sinr := refSINRdB(signalDBm, e.noiseFloor(), interfMW*e.interferenceFactor())
		bits := tx.Bits
		if bits == 0 {
			bits = DefaultPacketBits
		}
		ok[j] = rng.Float64() < refPRR802154(sinr, bits)
	}
	return ok
}

// checkPRR fails the test unless PRR802154 matches the reference bit for bit.
func checkPRR(t *testing.T, sinr float64, bits int) {
	t.Helper()
	got, want := PRR802154(sinr, bits), refPRR802154(sinr, bits)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("PRR802154(%v, %d) = %v (%#x), reference %v (%#x)",
			sinr, bits, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestPRRSaturationBitwise sweeps the SINR axis (−20 to 60 dB in 1e-4 dB
// steps, plus dense walks around the curve's own saturation near 5.89 dB
// and the 7 dB constant) for every frame length the simulator uses.
func TestPRRSaturationBitwise(t *testing.T) {
	bitLens := []int{0, AckBits, DefaultPacketBits, 1000}
	step := 1e-4
	if testing.Short() {
		step = 1e-3
	}
	for i := 0; ; i++ {
		s := -20 + float64(i)*step
		if s > 60 {
			break
		}
		for _, bits := range bitLens {
			checkPRR(t, s, bits)
		}
	}
	for _, center := range []float64{5.89, PRRSaturationDB} {
		for i := -20000; i <= 20000; i++ {
			s := center + float64(i)*1e-7
			for _, bits := range bitLens {
				checkPRR(t, s, bits)
			}
		}
		up, down := center, center
		for i := 0; i < 2000; i++ {
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
			for _, bits := range bitLens {
				checkPRR(t, up, bits)
				checkPRR(t, down, bits)
			}
		}
	}
	// The reference itself is already saturated below the constant, which is
	// what makes the constant safe rather than merely tested.
	if got := refPRR802154(6.6, 1<<20); got != 1 {
		t.Errorf("reference PRR at 6.6 dB = %v, want exactly 1", got)
	}
}

// FuzzPRR802154 checks any SINR (NaN and ±Inf included) and any frame
// length against the reference, bit for bit.
func FuzzPRR802154(f *testing.F) {
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -20, 0, 5.89,
		math.Nextafter(PRRSaturationDB, 0), PRRSaturationDB, 60, 1e300, -1e300} {
		for _, bits := range []int{0, AckBits, DefaultPacketBits, 1000, -7, 1 << 40} {
			f.Add(s, bits)
		}
	}
	f.Fuzz(func(t *testing.T, sinr float64, bits int) {
		got, want := PRR802154(sinr, bits), refPRR802154(sinr, bits)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("PRR802154(%v, %d) = %v, reference %v", sinr, bits, got, want)
		}
	})
}

// TestEvaluateMatchesReference runs random slots through Evaluate and the
// reference with identically seeded streams: 1–6 transmissions sharing a
// few channels, external interference on and off, i.i.d. and AR(1) fading,
// several noise floors (one so low its power underflows) and frame lengths.
// Gray-zone slots follow: co-channel pairs whose signals lead the other
// sender's by 2–10 dB at each receiver, with external interference, so
// SINRs land in the PRR transition where the bound tables are tightest.
// Then co-channel-heavy slots: 3–8 senders on one channel whose
// interferers mostly sum to 2–10 dB under each signal, mixed with dead
// (−Inf) and −4000 dBm paths, paths just inside and outside the ±300 dBm
// guard, and paths so weak that noise plus their scaled sum rounds to the
// noise power or just past it; a quarter of them carry only such quiet
// paths, with signals around the clean-frame margin. Every outcome must
// match, and so must the next draw from each stream. The heavy slots count
// Evaluate's exact recomputes from the Gain calls it makes (every recompute
// asks for each interferer once more), require a floor on them, and
// require extra to be called once per frame.
func TestEvaluateMatchesReference(t *testing.T) {
	gains := rand.New(rand.NewSource(1))
	table := make(map[[3]int]float64)
	// Gray-zone slots send from nodes 100 and 101 to nodes 110 and 111,
	// outside the random slots' twelve nodes; signal and lead hold each
	// receiver's desired power and its margin over the other sender.
	var signal, lead [2]float64
	// Heavy slots send from nodes 120+i to nodes 130+i; heavy[i][j] is the
	// power from node 120+i at node 130+j.
	var heavy [8][8]float64
	gainCalls := 0
	gain := func(tx, rx, ch int) float64 {
		gainCalls++
		if rx >= 130 {
			return heavy[tx-120][rx-130]
		}
		if rx >= 110 {
			if tx == rx-10 {
				return signal[rx-110]
			}
			return signal[rx-110] - lead[rx-110]
		}
		k := [3]int{tx, rx, ch}
		g, ok := table[k]
		if !ok {
			switch r := gains.Float64(); {
			case r < 0.03:
				g = math.Inf(-1) // a dead path
			case r < 0.06:
				g = -4000 // below any representable power
			default:
				g = -105 + 70*gains.Float64()
			}
			table[k] = g
		}
		return g
	}
	envs := []Env{
		{},
		{FadingSigmaDB: 3},
		{FadingSigmaDB: 4, FadingCorrelation: 0.9},
		{FadingSigmaDB: 2, InterferenceFactor: 1, NoiseFloorDBm: -100},
		{FadingSigmaDB: 6, FadingCorrelation: 0.5, NoiseFloorDBm: -90},
		{NoiseFloorDBm: -4000},
		{FadingSigmaDB: 1, NoiseFloorDBm: -4010, InterferenceFactor: 2},
	}
	slots := 20000
	if testing.Short() {
		slots = 4000
	}
	recomputes := 0
	for ei, cfg := range envs {
		cfg.Gain = gain
		got, want := cfg, cfg
		seed := int64(100 + ei)
		rngGot, rngWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		draw := rand.New(rand.NewSource(seed + 1000))
		var buf []bool
		for slot := 0; slot < slots; slot++ {
			txs := make([]Transmission, 1+draw.Intn(6))
			for i := range txs {
				txs[i] = Transmission{
					Sender: draw.Intn(12), Receiver: draw.Intn(12), Channel: draw.Intn(3),
					Bits: []int{0, AckBits, DefaultPacketBits, 1000}[draw.Intn(4)],
				}
			}
			var extra InterferenceFunc
			if draw.Intn(2) == 0 {
				level := []float64{0, 1e-12, DBmToMilliwatts(-95), DBmToMilliwatts(-80)}[draw.Intn(4)]
				extra = func(rx, ch int) float64 {
					if ch == 0 {
						return level
					}
					return 0
				}
			}
			buf = got.Evaluate(rngGot, txs, extra, buf)
			ref := refEvaluate(&want, rngWant, txs, extra)
			for i := range ref {
				if buf[i] != ref[i] {
					t.Fatalf("env %d slot %d tx %d: Evaluate = %v, reference %v", ei, slot, i, buf[i], ref[i])
				}
			}
		}
		decoded := 0
		for slot := 0; slot < slots; slot++ {
			bits := []int{0, AckBits, DefaultPacketBits, 1000}[draw.Intn(4)]
			txs := []Transmission{{Sender: 100, Receiver: 110, Bits: bits}, {Sender: 101, Receiver: 111, Bits: bits}}
			for r := range signal {
				signal[r], lead[r] = -95+50*draw.Float64(), 2+8*draw.Float64()
			}
			level := DBmToMilliwatts(signal[0] - 15 - 20*draw.Float64())
			extra := func(rx, ch int) float64 { return level }
			buf = got.Evaluate(rngGot, txs, extra, buf)
			ref := refEvaluate(&want, rngWant, txs, extra)
			for i := range ref {
				if buf[i] != ref[i] {
					t.Fatalf("env %d gray slot %d tx %d: Evaluate = %v, reference %v", ei, slot, i, buf[i], ref[i])
				}
				if ref[i] {
					decoded++
				}
			}
		}
		// The gray zone must be gray: at least 1 % of its frames decoded
		// and at least 1 % lost.
		if decoded < 2*slots/100 || decoded > 2*slots*99/100 {
			t.Fatalf("env %d: %d of %d gray-zone frames decoded", ei, decoded, 2*slots)
		}
		rc := evaluateHeavySlots(t, ei, &got, &want, rngGot, rngWant, draw, slots/2, &heavy, &gainCalls)
		if _, noiseMW, _ := got.noise(); noiseMW > 0 {
			recomputes += rc
		}
		if a, b := rngGot.Int63(), rngWant.Int63(); a != b {
			t.Fatalf("env %d: random streams diverged: next draw %d vs %d", ei, a, b)
		}
	}
	// About one heavy frame in 800 lands in its cell's band.
	if floor := slots / 200; recomputes < floor {
		t.Fatalf("%d exact recomputes in the heavy slots, want at least %d", recomputes, floor)
	}
	t.Logf("%d exact recomputes in the heavy slots", recomputes)
}

// evaluateHeavySlots runs n co-channel-heavy slots through got.Evaluate and
// the reference, comparing every outcome, and returns how many frames
// recomputed their denominator exactly. Every slot's frame length has a
// table and every signal lies inside the guard, so where the noise power is
// positive each recompute is a draw that landed inside its cell's band.
// (Where it underflows to 0, a frame with no interference has an infinite
// ratio, which the tables refuse.)
func evaluateHeavySlots(t *testing.T, ei int, got, want *Env, rngGot, rngWant, draw *rand.Rand,
	n int, heavy *[8][8]float64, gainCalls *int) int {
	t.Helper()
	// Quiet slots place signals around the clean-frame margin over this
	// floor, and their weak interferers 160–175 dB under it.
	noise := got.noiseFloor()
	if noise < -prrMaxFastDBm {
		noise = DefaultNoiseFloorDBm
	}
	recomputes := 0
	var buf []bool
	for slot := 0; slot < n; slot++ {
		k := 3 + draw.Intn(6)
		bits := []int{0, AckBits, DefaultPacketBits}[draw.Intn(3)]
		txs := make([]Transmission, k)
		for i := range txs {
			txs[i] = Transmission{Sender: 120 + i, Receiver: 130 + i, Channel: 2, Bits: bits}
		}
		quiet := draw.Intn(4) == 0
		// k−1 equal interferers sum to share dB above each one.
		share := 10 * math.Log10(float64(k-1))
		for j := range k {
			if quiet {
				heavy[j][j] = noise + PRRSaturationDB - 1 + 2*draw.Float64()
			} else {
				heavy[j][j] = -95 + 50*draw.Float64()
			}
			for i := range k {
				if i == j {
					continue
				}
				var p float64
				switch r := draw.Float64(); {
				case r < 0.08:
					p = math.Inf(-1)
				case r < 0.16:
					p = -4000
				case r < 0.26:
					// Straddle the guard: ±300 dBm give or take a few ulps
					// or half a dB. A +300 dBm path swamps the frame.
					p = prrMaxFastDBm + []float64{-0.5, -1e-13, 0, 1e-13, 0.5}[draw.Intn(5)]
					if quiet || draw.Intn(4) != 0 {
						p = -p
					}
				case r < 0.46 || quiet:
					// Around where noise + p·factor stops rounding to noise.
					p = noise - 175 + 15*draw.Float64()
				default:
					// All such paths together sit 2–10 dB under the signal.
					p = heavy[j][j] - (2 + share + 8*draw.Float64())
				}
				heavy[i][j] = p
			}
		}
		var extra InterferenceFunc
		extraCalls := 0
		if !quiet && draw.Intn(2) == 0 {
			level := DBmToMilliwatts(-110 + 20*draw.Float64())
			extra = func(rx, ch int) float64 {
				extraCalls++
				return level
			}
		}
		before := *gainCalls
		buf = got.Evaluate(rngGot, txs, extra, buf)
		calls := *gainCalls - before
		if extra != nil && extraCalls != k {
			t.Fatalf("env %d heavy slot %d: extra called %d times for %d frames", ei, slot, extraCalls, k)
		}
		// One Gain call per signal and k−1 per co-channel sum.
		if over := calls - k*k; over < 0 || over%(k-1) != 0 {
			t.Fatalf("env %d heavy slot %d: %d Gain calls for %d frames", ei, slot, calls, k)
		} else {
			recomputes += over / (k - 1)
		}
		ref := refEvaluate(want, rngWant, txs, extra)
		for i := range ref {
			if buf[i] != ref[i] {
				t.Fatalf("env %d heavy slot %d tx %d: Evaluate = %v, reference %v", ei, slot, i, buf[i], ref[i])
			}
		}
	}
	return recomputes
}

// TestEvaluateReusesBuffer pins the caller-buffer contract: a buffer with
// room is written in place, a short one is replaced.
func TestEvaluateReusesBuffer(t *testing.T) {
	env := &Env{Gain: fixedGain(map[[2]int]float64{{0, 1}: -50, {2, 3}: -50})}
	rng := rand.New(rand.NewSource(1))
	txs := []Transmission{{Sender: 0, Receiver: 1}, {Sender: 2, Receiver: 3, Channel: 1}}
	buf := make([]bool, 4)
	got := env.Evaluate(rng, txs, nil, buf)
	if len(got) != 2 || &got[0] != &buf[0] {
		t.Fatalf("Evaluate did not write into the caller's buffer: len %d", len(got))
	}
	if got := env.Evaluate(rng, txs, nil, nil); len(got) != 2 || !got[0] || !got[1] {
		t.Fatalf("Evaluate(nil buffer) = %v, want [true true]", got)
	}
	if n := testing.AllocsPerRun(100, func() { buf = env.Evaluate(rng, txs, nil, buf) }); n != 0 {
		t.Errorf("Evaluate with a reused buffer allocates %v times per call", n)
	}
}

// TestEvaluateCleanShortcutBothSides puts the clean-frame shortcut's
// den == noiseMW test on inputs where coChannelMW's Exp sum and its exact
// sum answer it differently. For three noise floors and factors it searches
// pairs of weak interferers whose summed, scaled power sits where noise
// plus it stops rounding to the noise power, keeps pairs on which the two
// sums disagree, and runs each through Evaluate and the reference with
// signals from the clean-frame margin up: every frame must decode, as the
// reference does, with both directions of disagreement seen.
func TestEvaluateCleanShortcutBothSides(t *testing.T) {
	var p1, p2, signal float64
	gain := func(tx, rx, ch int) float64 {
		switch {
		case rx != 10:
			if tx == rx-10 {
				return -60
			}
			return math.Inf(-1)
		case tx == 0:
			return signal
		case tx == 1:
			return p1
		}
		return p2
	}
	txs := []Transmission{{Sender: 0, Receiver: 10}, {Sender: 1, Receiver: 11}, {Sender: 2, Receiver: 12}}
	fade := make([]float64, len(txs)*len(txs))
	var seen [2]int // [0]: only the Exp sum leaves den at noise; [1]: only the exact one
	for _, cfg := range []Env{{}, {NoiseFloorDBm: -100, InterferenceFactor: 1}, {NoiseFloorDBm: -90}} {
		cfg.Gain = gain
		got, want := cfg, cfg
		noiseDBm, noiseMW, cleanDB := got.noise()
		factor := got.interferenceFactor()
		atNoise := func(exact bool) bool {
			return noiseMW+got.coChannelMW(txs, fade, 0, exact)*factor == noiseMW
		}
		rngGot, rngWant := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
		var buf []bool
		found := 0
		// flip bisects *v to the highest power at which the Exp sum still
		// leaves den at the noise power.
		flip := func(v *float64) {
			lo, hi := float64(-prrMaxFastDBm), noiseDBm-150
			for range 200 {
				if *v = (lo + hi) / 2; atNoise(false) {
					lo = *v
				} else {
					hi = *v
				}
			}
			*v = lo
		}
		p2 = math.Inf(-1)
		flip(&p1)
		edge := p1
		for k := 0; k < 200 && found < 8; k++ {
			// p1 alone stays just under its flip, so p2 is weak enough that
			// its ulps move the sum finely; walk them across p2's flip.
			p1 = edge - 1e-4 - 1e-5*float64(k)
			flip(&p2)
			for range 3000 {
				p2 = math.Nextafter(p2, math.Inf(-1))
			}
			for range 6000 {
				p2 = math.Nextafter(p2, 0)
				fast, exact := atNoise(false), atNoise(true)
				if fast == exact {
					continue
				}
				found++
				if fast {
					seen[0]++
				} else {
					seen[1]++
				}
				for _, margin := range []float64{0, 1e-9, 1e-3, 1} {
					signal = noiseDBm + cleanDB + margin
					buf = got.Evaluate(rngGot, txs, nil, buf)
					ref := refEvaluate(&want, rngWant, txs, nil)
					if !buf[0] || !ref[0] {
						t.Fatalf("noise %v dBm, interferers %v and %v dBm, signal %v dBm: Evaluate %v, reference %v",
							noiseDBm, p1, p2, signal, buf[0], ref[0])
					}
				}
				break
			}
		}
		if a, b := rngGot.Int63(), rngWant.Int63(); a != b {
			t.Fatalf("noise %v dBm: random streams diverged: next draw %d vs %d", noiseDBm, a, b)
		}
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Fatalf("disagreements seen: %d with only the Exp sum at the noise power, %d with only the exact one", seen[0], seen[1])
	}
	t.Logf("disagreements: %d with only the Exp sum at the noise power, %d with only the exact one", seen[0], seen[1])
}

// FuzzEvaluate checks Evaluate against the reference, bit for bit, on a
// fuzzed slot. Each shape byte adds a transmission (up to 8): its channel
// out of three, its frame length and which interferer gain its paths
// take. Desired paths take g0 and the others g1 or g2, any float64
// (non-finite and beyond ±300 dBm included), each offset by up to 4 dB per
// path; the noise floor, interference factor, external power (on channel
// 0; zero means none) and fading σ are fuzzed too, and an odd seed makes
// the fading AR(1). Two slots run on identically seeded streams, and every
// outcome and the next draw must match.
func FuzzEvaluate(f *testing.F) {
	inf := math.Inf(1)
	for _, c := range []struct {
		shape                                   []byte
		g0, g1, g2, noise, factor, extra, sigma float64
	}{
		{[]byte{0, 0, 0}, -60, -66, -70, 0, 0, 0, 3},
		{[]byte{0, 3, 6, 9, 12, 15, 18, 21}, -55, -62, -300, 0, 0, 1e-12, 4},
		{[]byte{0x10, 0x20, 0x30, 0x40}, -80, prrMaxFastDBm, -prrMaxFastDBm - 1e-13, -90, 2, 0, 0},
		{[]byte{0, 0x10, 0x20}, -88, -263.7, -4000, 0, 0, 0, 0},
		{[]byte{0, 4, 8, 12}, -70, -inf, inf, -4000, 0, 0, 1},
		{[]byte{0, 0, 0, 0, 0}, -75, math.NaN(), -80, -100, 1, -1e-9, 2},
		{[]byte{0, 0, 0}, -75, -80, -85, 0, -6, 0, 0},
		// Frame 0's external term cancels its −61 dBm interferer down to
		// 3 ulps of it, where that term's Exp and Pow forms differ by 4:
		// keyed with the Exp sum, the frame would sit 3.7 dB low.
		{[]byte{0, 0}, -217, -60, -inf, -4000, 1, -7.943282347242819e-07, 0},
		{[]byte{0, 0}, 400, 350, -350, 0, 0, inf, 0},
		{[]byte{0, 0, 0}, -70, -74, -78, 0, 1e300, 0, 0},
	} {
		for _, seed := range []int64{1, 2} {
			f.Add(seed, c.shape, c.g0, c.g1, c.g2, c.noise, c.factor, c.extra, c.sigma)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, shape []byte, g0, g1, g2, noise, factor, extraMW, sigma float64) {
		shape = shape[:min(len(shape), 8)]
		txs := make([]Transmission, len(shape))
		for i, b := range shape {
			txs[i] = Transmission{Sender: i, Receiver: 8 + i, Channel: int(b % 3),
				Bits: []int{0, AckBits, DefaultPacketBits, 1000}[b>>2&3]}
		}
		gain := func(tx, rx, ch int) float64 {
			off := float64((tx*7 + rx*3) % 5)
			switch {
			case tx == rx-8:
				return g0 + off
			case (int(shape[tx]>>4)+rx)%2 == 0:
				return g1 - off
			}
			return g2 - off
		}
		var extra InterferenceFunc
		if extraMW != 0 {
			extra = func(rx, ch int) float64 {
				if ch == 0 {
					return extraMW
				}
				return 0
			}
		}
		cfg := Env{NoiseFloorDBm: noise, InterferenceFactor: factor, FadingSigmaDB: sigma, Gain: gain}
		if seed%2 != 0 {
			cfg.FadingCorrelation = 0.7
		}
		got, want := cfg, cfg
		rngGot, rngWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		var buf []bool
		for slot := range 2 {
			buf = got.Evaluate(rngGot, txs, extra, buf)
			ref := refEvaluate(&want, rngWant, txs, extra)
			for i := range ref {
				if buf[i] != ref[i] {
					t.Fatalf("slot %d tx %d: Evaluate = %v, reference %v", slot, i, buf[i], ref[i])
				}
			}
		}
		if a, b := rngGot.Int63(), rngWant.Int63(); a != b {
			t.Fatalf("random streams diverged: next draw %d vs %d", a, b)
		}
	})
}
