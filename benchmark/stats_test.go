package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRankAndSampleGuard(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if v, ok := percentile(s, 0.50); v != 500 || !ok {
		t.Fatalf("p50 of 1..1000 = %v ok=%v", v, ok)
	}
	if v, ok := percentile(s, 0.99); v != 990 || !ok {
		t.Fatalf("p99 of 1..1000 = %v ok=%v, want 990 with 10 samples beyond", v, ok)
	}
	// 999 samples leave only 9 beyond the 99th percentile.
	if _, ok := percentile(s[:999], 0.99); ok {
		t.Fatal("p99 of 999 samples reported ok with fewer than ten samples beyond it")
	}
	if _, ok := percentile(s[:20], 0.50); ok {
		t.Fatal("p50 of 20 samples reported ok with fewer than ten samples on one side")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of nothing reported ok")
	}
}

func TestMedianOfTrials(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{10000, 11000, 10500}, 10500},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
		{nil, 0},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
	if lo, hi := minMax([]float64{3, 1, 2}); lo != 1 || hi != 3 {
		t.Errorf("minMax = %v, %v", lo, hi)
	}
}

// The acceptance spread is defined on Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Fatalf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 3, 7, 1, 9})
	if !near(q1, 2) || !near(q3, 9.5) {
		t.Fatalf("quartiles(10,3,7,1,9) = %v, %v, want 2, 9.5", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Fatalf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{5, 5, 5}); got != 0 {
		t.Fatalf("spread of a constant = %v", got)
	}
}
