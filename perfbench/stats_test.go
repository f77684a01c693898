package main

import (
	"math"
	"strings"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so tail must sort
	}
	return xs
}

// The tail rule: the highest percentile with at least ten samples beyond it.
func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		p, v  float64
		found bool
	}{
		{1000, 99, 990, true}, // p99.9 would leave 1 beyond
		{1009, 99, 999, true},
		{101, 90, 91, true}, // p95 would leave 5 beyond
		{100, 90, 90, true},
		{50, 80, 40, true},
		{40, 75, 30, true},
		{20, 50, 10, true},
		{19, 0, 0, false},
		{0, 0, 0, false},
	} {
		p, v, ok := tail(ramp(tc.n))
		if ok != tc.found || p != tc.p || v != tc.v {
			t.Errorf("n=%d: tail = p%g %g %v, want p%g %g %v", tc.n, p, v, ok, tc.p, tc.v, tc.found)
		}
		if ok {
			beyond := 0
			for _, x := range ramp(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%g", tc.n, beyond, p)
			}
		}
	}
}

func TestSummaryStatesSampleCount(t *testing.T) {
	s := summary(ramp(101), "ms")
	for _, want := range []string{"min=1ms", "p50=51ms", "p90=91ms", "n=101"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q lacks %q", s, want)
		}
	}
	if s := summary(ramp(5), "s"); strings.Contains(s, "p90") || !strings.Contains(s, "n=5") {
		t.Errorf("summary of 5 samples = %q, want a median and the count only", s)
	}
}

// A miss (+Inf) sorts last, so it can only raise a percentile.
func TestMissesCountAgainstPercentiles(t *testing.T) {
	xs := ramp(30)
	xs = append(xs, inf, inf, inf, inf, inf, inf, inf, inf, inf, inf, inf)
	p, v, ok := tail(xs)
	if !ok || p != 75 || !math.IsInf(v, 1) {
		t.Fatalf("tail with 11 misses in 41 = p%g %g %v, want a p75 miss", p, v, ok)
	}
	if m := median(append(ramp(2), inf)); m != 2 {
		t.Fatalf("median = %g, want 2", m)
	}
	if !math.IsInf(percentile(sorted(xs), 99), 1) {
		t.Fatal("p99 of a set with misses beyond it is not a miss")
	}
	if finite(inf) != math.MaxFloat64 {
		t.Fatal("a miss must encode as the largest float")
	}
}
