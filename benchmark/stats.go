package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 1) of sorted by the
// nearest-rank rule. ok is false when fewer than ten samples lie
// beyond it: a tail estimated from less is noise, so the caller must
// not print it.
func percentile(sorted []int64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	beyond := n - rank
	if p <= 0.5 {
		// For a median "beyond" means either side.
		if rank-1 < beyond {
			beyond = rank - 1
		}
	}
	return float64(sorted[rank-1]), beyond >= 10
}

// median returns the middle value of vals (mean of the middle two for
// an even count); 0 for no values.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minMax returns the extremes of vals; zeros for no values.
func minMax(vals []float64) (lo, hi float64) {
	for i, v := range vals {
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	return lo, hi
}

// quartiles returns the first and third quartile of vals the way
// Python's statistics.quantiles(vals, n=4) does (the exclusive
// method), which is what the acceptance spread is defined on.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n < 2 {
		if n == 1 {
			return vals[0], vals[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of vals as a share of their
// median: the run-to-run noise figure bounds are judged against.
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / math.Abs(m)
}

// sortedCopy returns lat sorted ascending without touching the input.
func sortedCopy(lat []int64) []int64 {
	s := append([]int64(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}
