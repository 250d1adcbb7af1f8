package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 4, 2} // sorted: 1 2 3 4
	tests := []struct {
		q, want float64
	}{
		{0, 1},
		{1, 4},
		{0.5, 2.5},
		{0.25, 1.75},
		{0.75, 3.25},
	}
	for _, tc := range tests {
		if got := Quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) || !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Error("invalid quantile inputs should be NaN")
	}
	if got := Quantile([]float64{7}, 0.5); got != 7 {
		t.Errorf("single-element quantile = %v, want 7", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	_ = Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestSummary(t *testing.T) {
	fn, err := Summary([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if fn.Min != 1 || fn.Median != 3 || fn.Max != 5 || fn.Q1 != 2 || fn.Q3 != 4 {
		t.Errorf("Summary = %+v", fn)
	}
	if _, err := Summary(nil); err == nil {
		t.Error("Summary(nil) should fail")
	}
	if s := fn.String(); s == "" {
		t.Error("String should be non-empty")
	}
}

func TestKSTestIdenticalSamples(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	res, err := KSTest(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.D != 0 {
		t.Errorf("D = %v, want 0 for identical samples", res.D)
	}
	if res.P < 0.99 {
		t.Errorf("P = %v, want ≈1 for identical samples", res.P)
	}
	if res.Reject(0.05) {
		t.Error("identical samples must not be rejected")
	}
}

func TestKSTestDisjointSamples(t *testing.T) {
	a := make([]float64, 30)
	b := make([]float64, 30)
	for i := range a {
		a[i] = float64(i)
		b[i] = float64(i) + 1000
	}
	res, err := KSTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.D != 1 {
		t.Errorf("D = %v, want 1 for disjoint samples", res.D)
	}
	if !res.Reject(0.05) {
		t.Errorf("disjoint samples must be rejected, P = %v", res.P)
	}
}

func TestKSTestSameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rejects := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		a := make([]float64, 25)
		b := make([]float64, 25)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		res, err := KSTest(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject(0.05) {
			rejects++
		}
	}
	// False-positive rate should be around alpha; the asymptotic
	// approximation is conservative for small samples, so allow slack.
	if rejects > trials*12/100 {
		t.Errorf("false positive rate too high: %d/%d", rejects, trials)
	}
}

func TestKSTestShiftedDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	detected := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		a := make([]float64, 30)
		b := make([]float64, 30)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64() + 1.5
		}
		res, err := KSTest(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject(0.05) {
			detected++
		}
	}
	if detected < trials*85/100 {
		t.Errorf("1.5σ shift detected only %d/%d times", detected, trials)
	}
}

func TestKSTestErrors(t *testing.T) {
	if _, err := KSTest(nil, []float64{1}); err == nil {
		t.Error("empty first sample should fail")
	}
	if _, err := KSTest([]float64{1}, nil); err == nil {
		t.Error("empty second sample should fail")
	}
}

// Property: D is symmetric and within [0,1]; p within [0,1].
func TestKSProperties(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		na, nb := 1+rng.Intn(40), 1+rng.Intn(40)
		a := make([]float64, na)
		b := make([]float64, nb)
		for i := range a {
			a[i] = rng.Float64()
		}
		for i := range b {
			b[i] = rng.Float64() * (1 + rng.Float64())
		}
		r1, err1 := KSTest(a, b)
		r2, err2 := KSTest(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return r1.D == r2.D && r1.P == r2.P &&
			r1.D >= 0 && r1.D <= 1 && r1.P >= 0 && r1.P <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKSProbBounds(t *testing.T) {
	if got := ksProb(0); got != 1 {
		t.Errorf("ksProb(0) = %v, want 1", got)
	}
	if got := ksProb(-1); got != 1 {
		t.Errorf("ksProb(-1) = %v, want 1", got)
	}
	if got := ksProb(5); got > 1e-9 {
		t.Errorf("ksProb(5) = %v, want ≈0", got)
	}
	// Monotone decreasing.
	prev := 1.0
	for l := 0.1; l < 3; l += 0.1 {
		p := ksProb(l)
		if p > prev+1e-12 {
			t.Fatalf("ksProb not monotone at %v", l)
		}
		prev = p
	}
	// Known value: Q(0.828) ≈ 0.50 (the KS distribution median).
	if p := ksProb(0.8276); math.Abs(p-0.5) > 0.01 {
		t.Errorf("ksProb(0.8276) = %v, want ≈0.5", p)
	}
}

func TestProportions(t *testing.T) {
	got := Proportions(map[int]int{1: 3, 2: 1})
	if got[1] != 0.75 || got[2] != 0.25 {
		t.Errorf("Proportions = %v", got)
	}
	if len(Proportions(nil)) != 0 {
		t.Error("empty histogram should give empty map")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("Median = %v, want 3", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
}
