package main

import (
	"math"
	"sort"
)

// tailQuantiles are the tail percentiles a _tail metric may report,
// highest first.
var tailQuantiles = []float64{0.99, 0.95, 0.90}

// minBeyond is how many samples must lie beyond a tail percentile for
// it to be reported.
const minBeyond = 10

// rankOf is the nearest-rank position (1-based) of quantile q in n
// sorted samples.
func rankOf(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// quantile returns the nearest-rank q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(q, len(sorted))-1]
}

// tail picks the highest of p99, p95 and p90 that has at least
// minBeyond samples ranked above it. ok is false when even p90 has
// fewer (under 100 samples).
func tail(sorted []float64) (value, q float64, ok bool) {
	n := len(sorted)
	for _, q := range tailQuantiles {
		if n-rankOf(q, n) >= minBeyond {
			return sorted[rankOf(q, n)-1], q, true
		}
	}
	return 0, 0, false
}

// latencySummary is the p50 and the selected tail of one sample set.
type latencySummary struct {
	n       int
	p50     float64
	tail    float64
	tailQ   float64
	hasTail bool
}

func summarize(values []float64) latencySummary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	out := latencySummary{n: len(s)}
	if len(s) == 0 {
		return out
	}
	out.p50 = quantile(s, 0.5)
	out.tail, out.tailQ, out.hasTail = tail(s)
	return out
}

func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
