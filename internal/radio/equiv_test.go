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
	for _, center := range []float64{5.89, prrSaturationDB} {
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
		math.Nextafter(prrSaturationDB, 0), prrSaturationDB, 60, 1e300, -1e300} {
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
// Every outcome must match, and so must the next draw from each stream.
func TestEvaluateMatchesReference(t *testing.T) {
	gains := rand.New(rand.NewSource(1))
	table := make(map[[3]int]float64)
	gain := func(tx, rx, ch int) float64 {
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
		if a, b := rngGot.Int63(), rngWant.Int63(); a != b {
			t.Fatalf("env %d: random streams diverged: next draw %d vs %d", ei, a, b)
		}
	}
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
