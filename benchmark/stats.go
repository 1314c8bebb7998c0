package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail read off fewer is one or two outliers, not a distribution.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and how
// many samples are strictly beyond that rank. It is the exact sample at the
// rank, never an interpolated or bucketed value, so it cannot exceed the
// maximum.
func percentile(xs []float64, q float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q * float64(len(s)))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// the spreads -selfcheck prints are the ones the acceptance driver sees.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
