package main

import (
	"math"
	"testing"
)

// TestTailPerMille pins the tail rule: the highest ladder percentile with at
// least ten samples beyond it, and the median below forty samples.
func TestTailPerMille(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 500}, {39, 500}, {40, 750}, {99, 750}, {100, 900}, {999, 900},
		{1000, 990}, {9999, 990}, {10000, 999}, {1 << 20, 999},
	} {
		if got := tailPerMille(tc.n); got != tc.want {
			t.Errorf("tailPerMille(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	for n := 40; n < 30000; n++ {
		pm := tailPerMille(n)
		if beyond := float64(n) * float64(1000-pm) / 1000; beyond < 10 {
			t.Fatalf("n=%d: p%d has %.2f samples beyond it", n, pm, beyond)
		}
		for _, higher := range tailLadder {
			if higher > pm && n*(1000-higher) >= 10000 {
				t.Fatalf("n=%d: p%d chosen although p%d has ten samples beyond it", n, pm, higher)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(s, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no values is not NaN")
	}
}

// TestQuartilesMatchPython compares with statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1.5, 9}, [3]float64{1.25, 3, 6.5}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
