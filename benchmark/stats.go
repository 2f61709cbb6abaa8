package main

import (
	"math"
	"sort"
	"time"
)

// tailQuantile is the tail percentile every workload reports. It is
// only trustworthy when at least minBeyond samples lie beyond it: for
// p90 that takes 100 samples, which audit-inline-20k, the workload with
// the fewest operations, reaches after 25 s.
const (
	tailQuantile = 0.90
	minBeyond    = 10
)

// quantile returns the nearest-rank q-quantile of sorted: the smallest
// value with at least a q fraction of the sample at or below it. It
// returns 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// beyond reports how many of n samples lie strictly beyond the
// nearest-rank q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

// tailSupported reports whether n samples leave at least minBeyond of
// them beyond the q-quantile, the rule for reporting that percentile.
func tailSupported(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// median returns the median of vals (the mean of the middle two for an
// even count), leaving vals unsorted.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms renders a duration in fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
