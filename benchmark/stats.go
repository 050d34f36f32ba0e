package main

import (
	"math"
	"math/bits"
	"sort"
)

// rng is a SplitMix64 stream. The benchmark owns its generator so that the
// op/index sequence of a seed never changes with the Go release, and so the
// program under test sees only generated indices.
type rng struct{ s uint64 }

// clientRNG seeds one client's stream as the issue specifies: seed ^ client<<32.
func clientRNG(seed uint64, client int) rng {
	return rng{s: seed ^ uint64(client)<<32}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a value in [0, n) by the multiply-shift reduction (no modulo
// bias worth the loop at the sizes used here, and no division).
func (r *rng) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

// tailSamples is the rule from the choosing-metrics guide: a percentile is
// reported only if at least this many samples lie beyond it.
const tailSamples = 10

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank method, and false when fewer than tailSamples samples lie
// strictly beyond the chosen rank. The median is held to the same rule, so a
// round with a handful of samples reports nothing rather than a guess.
func percentile(sorted []int64, p float64) (int64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	// The epsilon keeps p/100*n, where it is a whole number, from being
	// pushed to the next rank by its floating-point representation.
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n-rank < tailSamples {
		return 0, false
	}
	return sorted[rank-1], true
}

// summary describes a metric's per-round values. Quartiles use the same
// exclusive method as Python's statistics.quantiles(values, n=4), which is
// what the driver computes over runs, so the two spreads are comparable.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(vals []float64) summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return summary{}
	}
	return summary{
		Median: quantile(s, 0.5),
		Min:    s[0],
		Max:    s[n-1],
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
	}
}

// quantile interpolates at position q*(n+1) in 1-based ranks, clamped to the
// data (the "exclusive" method).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(pos)
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}
