package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the default ("exclusive") method of Python's statistics.quantiles(xs, n=4),
// so the spreads printed here are the ones an outside checker computes from
// the same values. One value is its own quartiles; no values give NaN.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer, and the percentile is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100)
// and whether at least minBeyond samples lie beyond it. A p99 therefore
// needs 1000 samples, a p90 100 and a median 20.
func percentile(xs []float64, p int) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := (p*n + 99) / 100 // ceil(p·n/100) in integers: no float rounding at the boundary
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}
