package main

import (
	"math"
	"testing"
)

func TestQuantileMatchesInclusiveMethod(t *testing.T) {
	// Python: statistics.quantiles([1, 2, 3, 4, 10], n=4, method="inclusive")
	// gives [2.0, 3.0, 4.0].
	xs := []float64{1, 2, 3, 4, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 10}, {0.9, 7.6},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
}

func TestMedianSortsACopy(t *testing.T) {
	xs := []float64{5, 1, 4, 2}
	if got := median(xs); got != 3 {
		t.Errorf("median(%v) = %v, want 3", xs, got)
	}
	if xs[0] != 5 || xs[3] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of odd count = %v, want 2", got)
	}
}

func TestBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{0, 0.99, 0},
		{1, 0.99, 0},
		{100, 0.99, 1},
		{1000, 0.99, 10},
		{1001, 0.99, 10},
		{2001, 0.99, 20},
		{1000, 0.5, 500},
	} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	// The smallest sample count whose p99 has minBeyond samples beyond it.
	n := 1
	for beyond(n, 0.99) < minBeyond {
		n++
	}
	if n != 902 {
		t.Errorf("smallest n with %d samples beyond p99 = %d, want 902", minBeyond, n)
	}
}
