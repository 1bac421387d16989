package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles latency_tail_ms may report, in per-mille,
// highest first. The rungs are a decade apart so a run's sample count stays
// on one rung even when the machine runs a little faster or slower.
var tailLadder = []int{999, 990, 900, 750}

// tailPerMille returns the highest ladder percentile (in per-mille) that has
// at least ten samples beyond it at sample count n: n*(1-p) >= 10. Below 40
// samples no rung qualifies and the median (500) is returned, because a
// percentile with fewer than ten samples beyond it is no tail.
func tailPerMille(n int) int {
	for _, pm := range tailLadder {
		if n*(1000-pm) >= 10*1000 {
			return pm
		}
	}
	return 500
}

// percentile returns the p-quantile (p in [0, 1]) of sorted values by linear
// interpolation between closest ranks. It returns NaN for no values.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of values without modifying them.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// quartiles returns the first quartile, median and third quartile of values
// the way Python's statistics.quantiles(values, n=4) computes them (its
// default "exclusive" method), so figures printed here match a check made
// with that function. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		v := math.NaN()
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
