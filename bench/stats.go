package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending sample: the smallest value with at least p% of the samples at
// or below it. It is the only tail estimator the harness uses.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of percentile p among n samples. The
// epsilon absorbs binary-fraction error (99.9·1000/100 is not exactly 999).
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// tailCandidates are the percentiles a tail may be reported at, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest candidate percentile with at least ten
// samples beyond its rank, so a reported tail is never a handful of
// outliers. ok is false below eleven samples.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailCandidates {
		if n-rank(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// summary describes a sample of latencies.
type summary struct {
	N        int
	P50, P90 float64
	P99      float64
	TailP    float64 // percentile chosen by tailPercentile (0 when none)
	Tail     float64
	Sum      float64
}

// summarize sorts a copy of xs and reads its percentiles, which are NaN
// when xs is empty.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s)}
	out.P50 = percentile(s, 50)
	out.P90 = percentile(s, 90)
	out.P99 = percentile(s, 99)
	if p, ok := tailPercentile(len(s)); ok {
		out.TailP, out.Tail = p, percentile(s, p)
	}
	for _, x := range s {
		out.Sum += x
	}
	return out
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed by -runs match the ones the acceptance check
// computes. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, false
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2], true
}
