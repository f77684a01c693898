package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// median of xs; +Inf entries (misses) sort last. NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minimum of xs; NaN for no samples.
func minimum(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sorted(xs)[0]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of ascending s: the smallest
// sample with at least p% of the samples at or below it.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p / 100 * float64(len(s))))
	k = max(1, min(k, len(s)))
	return s[k-1]
}

// tailLadder is the set of percentiles the tail rule picks from.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 80, 75, 50}

// tail applies the reporting rule for a timing's tail: the highest
// percentile on tailLadder that still has at least ten samples beyond it.
// With fewer than twenty samples there is none and ok is false.
func tail(xs []float64) (p, v float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailLadder {
		k := int(math.Ceil(p / 100 * float64(n)))
		if k >= 1 && n-k >= 10 {
			return p, s[k-1], true
		}
	}
	return 0, 0, false
}

// summary renders a timing's minimum, median, tail by the rule above and
// sample count.
func summary(xs []float64, unit string) string {
	if len(xs) == 0 {
		return "no samples"
	}
	s := fmt.Sprintf("min=%.4g%s p50=%.4g%s", minimum(xs), unit, median(xs), unit)
	if p, v, ok := tail(xs); ok && p > 50 {
		s += fmt.Sprintf(" p%g=%.4g%s", p, v, unit)
	}
	return s + fmt.Sprintf(" n=%d", len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
