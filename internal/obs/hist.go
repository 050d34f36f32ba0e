package obs

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is the fixed bucket count: bucket b holds observations v with
// bits.Len64(v) == b+1, i.e. v in [2^b, 2^(b+1)). 64 log2 buckets cover the
// full uint64 nanosecond range, so Observe never clamps on real latencies.
const histBuckets = 64

// Histogram is a fixed-bucket log2 latency histogram safe for concurrent
// Observe and Snapshot. Observations are nanoseconds. It is write-cheap (two
// atomic adds plus a max CAS) and meant for slow paths — grace periods,
// resize phases, RPC round-trips — not per-element reads. A nil *Histogram
// is a no-op.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// bucketOf maps an observation to its log2 bucket.
func bucketOf(v uint64) int {
	if v == 0 {
		return 0
	}
	return bits.Len64(v) - 1
}

// Observe records a duration in nanoseconds. Negative values clamp to zero.
func (h *Histogram) Observe(ns int64) {
	if h == nil {
		return
	}
	v := uint64(0)
	if ns > 0 {
		v = uint64(ns)
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Since records the nanoseconds elapsed since s, a Stamp from Start. A zero
// Stamp — observability was off when the interval began — records nothing,
// so a disabled run reads no clock here either.
func (h *Histogram) Since(s Stamp) {
	if h != nil && s != 0 {
		h.Observe(s.Elapsed())
	}
}

// Count returns the total number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// reset zeroes the histogram in place (registry Reset; not concurrency-safe
// against writers).
func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// HistSnap is a point-in-time view of a histogram: totals plus quantiles
// estimated at bucket upper bounds (pessimistic: up to 2x the exact value).
type HistSnap struct {
	Count    uint64 `json:"count"`
	SumNanos uint64 `json:"sum_ns"`
	MaxNanos uint64 `json:"max_ns"`
	P50      uint64 `json:"p50_ns"`
	P90      uint64 `json:"p90_ns"`
	P99      uint64 `json:"p99_ns"`
}

// Snap returns a point-in-time view. Under concurrent writers the view is
// approximate (buckets are read one at a time) but never torn per-word.
func (h *Histogram) Snap() HistSnap {
	if h == nil {
		return HistSnap{}
	}
	var b [histBuckets]uint64
	var n uint64
	for i := range h.buckets {
		b[i] = h.buckets[i].Load()
		n += b[i]
	}
	s := HistSnap{Count: n, SumNanos: h.sum.Load(), MaxNanos: h.max.Load()}
	s.P50 = quantile(&b, n, 0.50)
	s.P90 = quantile(&b, n, 0.90)
	s.P99 = quantile(&b, n, 0.99)
	return s
}

// quantile returns the upper bound of the bucket containing rank q*n. An
// upper bound is reported so the estimate errs pessimistic.
func quantile(b *[histBuckets]uint64, n uint64, q float64) uint64 {
	if n == 0 {
		return 0
	}
	rank := uint64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var seen uint64
	for i := range b {
		seen += b[i]
		if seen > rank {
			if i == histBuckets-1 {
				return ^uint64(0)
			}
			return (uint64(1) << (uint(i) + 1)) - 1
		}
	}
	return 0
}
