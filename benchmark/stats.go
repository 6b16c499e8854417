package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of sorted (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// summary is one metric over a run's samples: median, quartiles and count.
type summary struct {
	median, q1, q3 float64
	n              int
}

func summarize(values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return summary{median: median(s), q1: quantile(s, 0.25), q3: quantile(s, 0.75), n: len(s)}
}

// median of sorted values, averaging the middle pair of an even count.
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

// tail reports the highest of p99.9, p99 and p90 that has at least ten
// samples beyond it, falling back to the median when even p90 has fewer.
// With fewer than 1,000 samples p99 rests on under ten observations, so it
// is not reported.
func tail(values []float64) (q, v float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if float64(len(s))*(1-q) >= 10-1e-9 {
			return q, quantile(s, q)
		}
	}
	return 0.5, median(s)
}
