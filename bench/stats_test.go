package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refPercentile is the definition percentile implements, computed by
// counting instead of rank arithmetic: the smallest sample with at least p%
// of the samples at or below it. p is in tenths of a percent.
func refPercentile(xs []float64, pTenths int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, v := range s {
		atOrBelow := 0
		for _, x := range s {
			if x <= v {
				atOrBelow++
			}
		}
		if atOrBelow*1000 >= pTenths*len(s) {
			return v
		}
	}
	return s[len(s)-1]
}

func TestPercentileMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 7, 10, 11, 99, 100, 101, 1000, 1001} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(n/2 + 1)) // duplicates included
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, p := range []float64{0.1, 1, 25, 50, 75, 90, 95, 99, 99.9, 100} {
			got := percentile(sorted, p)
			want := refPercentile(xs, int(math.Round(p*10)))
			if got != want {
				t.Errorf("n=%d p=%g: percentile %g, reference %g", n, p, got, want)
			}
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{10, 0, false},
		{19, 0, false},
		{20, 50, true},
		{100, 90, true},
		{600, 95, true},
		{1000, 99, true},
		{2000, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.p || ok != tc.ok {
			t.Errorf("n=%d: got p%g ok=%v, want p%g ok=%v", tc.n, p, ok, tc.p, tc.ok)
		}
		if ok && tc.n-rank(tc.n, p) < 10 {
			t.Errorf("n=%d: p%g leaves fewer than ten samples beyond it", tc.n, p)
		}
	}
}

// The expectations are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{2.5, 0.5, 9, 4, 4, 7, 1.25, 3, 8, 6}, [3]float64{2.1875, 4, 7.25}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, [3]float64{30, 60, 90}},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		if !ok || [3]float64{q1, q2, q3} != tc.want {
			t.Errorf("quartiles(%v) = %v %v %v (ok=%v), want %v", tc.xs, q1, q2, q3, ok, tc.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be ok")
	}
}
