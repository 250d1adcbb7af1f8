package radio

import (
	"math/rand"
	"testing"
)

// fixedGain builds a GainFunc from a matrix indexed [tx][rx], ignoring the
// channel.
func fixedGain(m map[[2]int]float64) GainFunc {
	return func(tx, rx, ch int) float64 {
		if g, ok := m[[2]int{tx, rx}]; ok {
			return g
		}
		return -200 // effectively no coupling
	}
}

func TestEvaluateStrongLinkAlwaysSucceeds(t *testing.T) {
	env := &Env{Gain: fixedGain(map[[2]int]float64{{0, 1}: -50})}
	rng := rand.New(rand.NewSource(1))
	txs := []Transmission{{Sender: 0, Receiver: 1, Channel: 0}}
	for i := 0; i < 200; i++ {
		ok := env.Evaluate(rng, txs, nil, nil)
		if !ok[0] {
			t.Fatal("strong isolated link should never fail")
		}
	}
}

func TestEvaluateDeadLinkAlwaysFails(t *testing.T) {
	env := &Env{Gain: fixedGain(map[[2]int]float64{{0, 1}: -120})}
	rng := rand.New(rand.NewSource(2))
	txs := []Transmission{{Sender: 0, Receiver: 1, Channel: 0}}
	for i := 0; i < 200; i++ {
		if ok := env.Evaluate(rng, txs, nil, nil); ok[0] {
			t.Fatal("link 25 dB below noise floor should never succeed")
		}
	}
}

func TestEvaluateCoChannelInterferenceKills(t *testing.T) {
	// Two concurrent transmissions on the same channel; each interferer is
	// received as strongly as the desired signal -> both should mostly fail.
	gains := map[[2]int]float64{
		{0, 1}: -60, {2, 3}: -60,
		{0, 3}: -60, {2, 1}: -60,
	}
	env := &Env{Gain: fixedGain(gains)}
	rng := rand.New(rand.NewSource(3))
	txs := []Transmission{
		{Sender: 0, Receiver: 1, Channel: 0},
		{Sender: 2, Receiver: 3, Channel: 0},
	}
	successes := 0
	const trials = 500
	for i := 0; i < trials; i++ {
		ok := env.Evaluate(rng, txs, nil, nil)
		if ok[0] {
			successes++
		}
	}
	if successes > trials/10 {
		t.Errorf("0 dB SIR should almost always fail: %d/%d succeeded", successes, trials)
	}
}

func TestEvaluateCaptureEffect(t *testing.T) {
	// Interferer is 20 dB weaker than the desired signal at the receiver:
	// the capture effect should let the frame through essentially always.
	gains := map[[2]int]float64{
		{0, 1}: -55, {2, 3}: -55,
		{0, 3}: -75, {2, 1}: -75,
	}
	env := &Env{Gain: fixedGain(gains)}
	rng := rand.New(rand.NewSource(4))
	txs := []Transmission{
		{Sender: 0, Receiver: 1, Channel: 0},
		{Sender: 2, Receiver: 3, Channel: 0},
	}
	successes := 0
	const trials = 500
	for i := 0; i < trials; i++ {
		ok := env.Evaluate(rng, txs, nil, nil)
		if ok[0] && ok[1] {
			successes++
		}
	}
	if successes < trials*95/100 {
		t.Errorf("capture effect: both frames should succeed, got %d/%d", successes, trials)
	}
}

func TestEvaluateDifferentChannelsDoNotInterfere(t *testing.T) {
	gains := map[[2]int]float64{
		{0, 1}: -80, {2, 3}: -80,
		{0, 3}: -60, {2, 1}: -60, // would be lethal on the same channel
	}
	env := &Env{Gain: fixedGain(gains)}
	rng := rand.New(rand.NewSource(5))
	txs := []Transmission{
		{Sender: 0, Receiver: 1, Channel: 0},
		{Sender: 2, Receiver: 3, Channel: 1},
	}
	for i := 0; i < 200; i++ {
		ok := env.Evaluate(rng, txs, nil, nil)
		if !ok[0] || !ok[1] {
			t.Fatal("cross-channel transmissions must not interfere")
		}
	}
}

func TestEvaluateExternalInterference(t *testing.T) {
	env := &Env{Gain: fixedGain(map[[2]int]float64{{0, 1}: -70})}
	rng := rand.New(rand.NewSource(6))
	txs := []Transmission{{Sender: 0, Receiver: 1, Channel: 0}}
	jam := func(rx, ch int) float64 { return DBmToMilliwatts(-60) }
	fails := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		if ok := env.Evaluate(rng, txs, jam, nil); !ok[0] {
			fails++
		}
	}
	if fails < trials*9/10 {
		t.Errorf("strong external interference should kill the link: %d/%d failed", fails, trials)
	}
	// Interference on another channel is harmless.
	jamOther := func(rx, ch int) float64 {
		if ch == 5 {
			return DBmToMilliwatts(-30)
		}
		return 0
	}
	for i := 0; i < 100; i++ {
		if ok := env.Evaluate(rng, txs, jamOther, nil); !ok[0] {
			t.Fatal("interference on an unused channel must not affect the link")
		}
	}
}

func TestEvaluateFadingCausesIntermittentLoss(t *testing.T) {
	// A link with ~6 dB margin and 5 dB fading should fail sometimes but not
	// always.
	env := &Env{
		Gain:          fixedGain(map[[2]int]float64{{0, 1}: -89}),
		FadingSigmaDB: 5,
	}
	rng := rand.New(rand.NewSource(7))
	txs := []Transmission{{Sender: 0, Receiver: 1, Channel: 0}}
	succ := 0
	const trials = 1000
	for i := 0; i < trials; i++ {
		if ok := env.Evaluate(rng, txs, nil, nil); ok[0] {
			succ++
		}
	}
	if succ == 0 || succ == trials {
		t.Errorf("marginal fading link should be intermittent, got %d/%d", succ, trials)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	env := &Env{Gain: fixedGain(nil)}
	rng := rand.New(rand.NewSource(8))
	if got := env.Evaluate(rng, nil, nil, nil); len(got) != 0 {
		t.Errorf("Evaluate(nil) = %v, want empty", got)
	}
}

func TestEnvDefaultNoiseFloor(t *testing.T) {
	e := &Env{}
	if got := e.noiseFloor(); got != DefaultNoiseFloorDBm {
		t.Errorf("noiseFloor = %v, want %v", got, DefaultNoiseFloorDBm)
	}
	e.NoiseFloorDBm = -100
	if got := e.noiseFloor(); got != -100 {
		t.Errorf("noiseFloor = %v, want -100", got)
	}
}

func BenchmarkEvaluate8Concurrent(b *testing.B) {
	gains := make(map[[2]int]float64)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			gains[[2]int{i, j}] = -60 - float64((i+j)%30)
		}
	}
	env := &Env{Gain: fixedGain(gains), FadingSigmaDB: 3}
	txs := make([]Transmission, 8)
	for i := range txs {
		txs[i] = Transmission{Sender: 2 * i, Receiver: 2*i + 1, Channel: i % 4}
	}
	rng := rand.New(rand.NewSource(9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = env.Evaluate(rng, txs, nil, nil)
	}
}

// BenchmarkEvaluateCoChannel puts 8 senders on one channel, so every frame
// sums seven co-channel terms: the RA-style slots of heavy reuse.
func BenchmarkEvaluateCoChannel(b *testing.B) {
	gains := make(map[[2]int]float64)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			gains[[2]int{i, j}] = -60 - float64((i+j)%30)
		}
	}
	env := &Env{Gain: fixedGain(gains), FadingSigmaDB: 3}
	txs := make([]Transmission, 8)
	for i := range txs {
		txs[i] = Transmission{Sender: 2 * i, Receiver: 2*i + 1}
	}
	rng := rand.New(rand.NewSource(9))
	var ok []bool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok = env.Evaluate(rng, txs, nil, ok)
	}
}

func TestCorrelatedFadingIsBursty(t *testing.T) {
	// With high correlation, consecutive samples on one path move together;
	// measure the lag-1 autocorrelation of the realized fading through a
	// marginal link's success runs.
	sample := func(rho float64) []float64 {
		env := &Env{
			Gain:              fixedGain(map[[2]int]float64{{0, 1}: -80}),
			FadingSigmaDB:     4,
			FadingCorrelation: rho,
		}
		rng := rand.New(rand.NewSource(3))
		txs := []Transmission{{Sender: 0, Receiver: 1, Channel: 0}}
		out := make([]float64, 4000)
		for i := range out {
			out[i] = env.samplePathFading(rng, txs[0].Sender, txs[0].Receiver)
		}
		return out
	}
	autocorr := func(xs []float64) float64 {
		var num, den float64
		for i := 1; i < len(xs); i++ {
			num += xs[i] * xs[i-1]
			den += xs[i] * xs[i]
		}
		return num / den
	}
	iid := autocorr(sample(0))
	bursty := autocorr(sample(0.9))
	if iid > 0.1 || iid < -0.1 {
		t.Errorf("i.i.d. fading autocorrelation = %v, want ≈0", iid)
	}
	if bursty < 0.8 {
		t.Errorf("ρ=0.9 fading autocorrelation = %v, want ≈0.9", bursty)
	}
	// Stationary variance is preserved.
	varOf := func(xs []float64) float64 {
		var sum, sumSq float64
		for _, x := range xs {
			sum += x
			sumSq += x * x
		}
		mean := sum / float64(len(xs))
		return sumSq/float64(len(xs)) - mean*mean
	}
	v0, v9 := varOf(sample(0)), varOf(sample(0.9))
	if v9 < v0*0.6 || v9 > v0*1.6 {
		t.Errorf("AR(1) variance drifted: %v vs %v", v9, v0)
	}
}

func TestCorrelatedFadingHurtsRetries(t *testing.T) {
	// Bursty fading makes the immediate retry fail together with the
	// primary more often, so two-attempt hop success drops even though the
	// marginal per-slot loss rate is the same.
	perHopSuccess := func(rho float64) float64 {
		env := &Env{
			Gain:              fixedGain(map[[2]int]float64{{0, 1}: -91}),
			FadingSigmaDB:     4,
			FadingCorrelation: rho,
		}
		rng := rand.New(rand.NewSource(4))
		txs := []Transmission{{Sender: 0, Receiver: 1, Channel: 0}}
		success := 0
		const trials = 4000
		for i := 0; i < trials; i++ {
			first := env.Evaluate(rng, txs, nil, nil)
			second := env.Evaluate(rng, txs, nil, nil)
			if first[0] || second[0] {
				success++
			}
		}
		return float64(success) / trials
	}
	iid := perHopSuccess(0)
	bursty := perHopSuccess(0.95)
	if bursty >= iid {
		t.Errorf("bursty fading should hurt retry success: iid=%v bursty=%v", iid, bursty)
	}
}
