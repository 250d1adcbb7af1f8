// Package stats provides the statistics the detection policy (Sec. VI) and
// the evaluation (Sec. VII) need: the two-sample Kolmogorov-Smirnov test
// with an asymptotic p-value, quantiles and five-number summaries for box
// plots, and histogram proportions.
// Everything is dependency-free and deterministic.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using linear interpolation
// between order statistics. It returns NaN for empty input or q outside
// [0,1]. The input need not be sorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5-quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// FiveNum is a box-plot five-number summary.
type FiveNum struct {
	Min, Q1, Median, Q3, Max float64
}

// Summary computes the five-number summary, or an error for empty input.
func Summary(xs []float64) (FiveNum, error) {
	if len(xs) == 0 {
		return FiveNum{}, fmt.Errorf("summary of empty sample")
	}
	return FiveNum{
		Min:    Quantile(xs, 0),
		Q1:     Quantile(xs, 0.25),
		Median: Quantile(xs, 0.5),
		Q3:     Quantile(xs, 0.75),
		Max:    Quantile(xs, 1),
	}, nil
}

// String renders the summary in box-plot order.
func (f FiveNum) String() string {
	return fmt.Sprintf("min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f",
		f.Min, f.Q1, f.Median, f.Q3, f.Max)
}

// KSResult is the outcome of a two-sample Kolmogorov-Smirnov test.
type KSResult struct {
	// D is the maximum distance between the two ECDFs, in [0,1].
	D float64
	// P is the asymptotic two-sided p-value.
	P float64
}

// Reject reports whether the null hypothesis (same distribution) is rejected
// at significance level alpha.
func (r KSResult) Reject(alpha float64) bool { return r.P < alpha }

// KSTest runs the two-sample Kolmogorov-Smirnov test. It makes no assumption
// about the underlying distributions (the reason the paper picks it) and
// accepts any sample sizes ≥ 1.
func KSTest(a, b []float64) (KSResult, error) {
	if len(a) == 0 || len(b) == 0 {
		return KSResult{}, fmt.Errorf("ks test: empty sample (|a|=%d, |b|=%d)", len(a), len(b))
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	na, nb := len(sa), len(sb)
	var d float64
	i, j := 0, 0
	for i < na && j < nb {
		x := math.Min(sa[i], sb[j])
		for i < na && sa[i] <= x {
			i++
		}
		for j < nb && sb[j] <= x {
			j++
		}
		diff := math.Abs(float64(i)/float64(na) - float64(j)/float64(nb))
		if diff > d {
			d = diff
		}
	}
	ne := float64(na) * float64(nb) / float64(na+nb)
	sqrtNe := math.Sqrt(ne)
	lambda := (sqrtNe + 0.12 + 0.11/sqrtNe) * d
	return KSResult{D: d, P: ksProb(lambda)}, nil
}

// ksProb is the asymptotic Kolmogorov survival function
// Q(λ) = 2 Σ_{j≥1} (−1)^{j−1} e^{−2 j² λ²}, clamped to [0,1].
func ksProb(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	sum := 0.0
	sign := 1.0
	for j := 1; j <= 100; j++ {
		term := sign * math.Exp(-2*float64(j*j)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Proportions normalizes an integer histogram to fractions summing to 1.
// An empty histogram yields an empty map.
func Proportions(hist map[int]int) map[int]float64 {
	total := 0
	for _, v := range hist {
		total += v
	}
	out := make(map[int]float64, len(hist))
	if total == 0 {
		return out
	}
	for k, v := range hist {
		out[k] = float64(v) / float64(total)
	}
	return out
}
