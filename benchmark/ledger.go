package main

import (
	"strings"

	"rcuarray/internal/obs"
)

// observe folds the traced pass's registries into the round's Extra block:
// the driver-side flush coalescing views and error counters, and the nodes'
// fencing rejections pulled through Driver.NodeObsSnapshot. It reads only
// counts and histogram sums, never the log2 bucket percentiles. A no-op on
// untraced rounds, which carry no registry.
func (s *serveCluster) observe(o *roundOut) {
	if s.reg == nil {
		return
	}
	snap := s.reg.Snapshot()
	frames, flushes := histTotals(snap, "comm_flush_frames{")
	bytes, _ := histTotals(snap, "comm_flush_bytes{")
	if flushes > 0 {
		o.Extra["comm.frames_per_flush"] = float64(frames) / float64(flushes)
		o.Extra["comm.bytes_per_flush"] = float64(bytes) / float64(flushes)
	}
	o.Extra["comm.rpc_errors"] = float64(counterTotal(snap, "comm_rpc_errors_total"))
	o.Extra["comm.rpc_timeouts"] = float64(counterTotal(snap, "comm_rpc_timeouts_total"))
	o.Extra["dist.rpc_retries"] = float64(counterTotal(snap, "dist_rpc_retries_total"))
	o.Extra["dist.redials"] = float64(counterTotal(snap, "dist_redials_total"))
	var fenced uint64
	for i := range s.nodes {
		ns, err := s.d.NodeObsSnapshot(i)
		o.check(err == nil, "NodeObsSnapshot(%d): %v", i, err)
		fenced += counterTotal(ns, "dist_fenced_total") + counterTotal(ns, "comm_fenced_puts_total")
	}
	o.Extra["dist.fenced"] = float64(fenced)
}

// histTotals sums sum and count over every histogram whose name has prefix
// (the labelled per-peer series of one metric).
func histTotals(s obs.Snapshot, prefix string) (sum, count uint64) {
	for name, h := range s.Histograms {
		if strings.HasPrefix(name, prefix) {
			sum += h.SumNanos
			count += h.Count
		}
	}
	return sum, count
}

func counterTotal(s obs.Snapshot, prefix string) uint64 {
	var n uint64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			n += v
		}
	}
	return n
}
