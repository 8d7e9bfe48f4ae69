package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to count as measured rather than as the largest few samples.
const minBeyond = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between the two order statistics around rank (n-1)q —
// the "inclusive" method of Python's statistics.quantiles and numpy's
// default. It returns 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	h := float64(n-1) * q
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// beyond is the number of order statistics strictly above the rank of
// the q-quantile of n samples: n-1-floor((n-1)q). It counts ranks, not
// values, so ties in the data do not change it.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(float64(n-1)*q))
}

// median sorts a copy of xs and returns its 0.5-quantile.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
