package main

import (
	"fmt"
	"time"

	"rcuarray/internal/obs"
)

// Fixed call counts of the traced pass, one client: counts repeat exactly.
var tracedCalls = map[string]int{
	"index_ebr":    1 << 22 / chunkOps, // 2^22 index ops, about 0.1 s
	"index_qsbr":   1 << 22 / chunkOps,
	"resize_ebr":   500,   // grows
	"serve_point":  50000, // reads
	"serve_bulk":   500,   // batches
	"serve_resize": 500,   // grows
	"recover":      20,    // restart cycles
}

// overheadPairs is how many untraced/traced pairs obs.overhead_pct rests on;
// the arms alternate and each arm's median rate is compared.
const overheadPairs = 3

func (c config) tracedEnv(name string, rec *spanRec) *env {
	e := c.env(c.seed)
	e.clients, e.warm, e.window = 1, 0, 0
	e.calls, e.grows, e.cycles, e.groups = tracedCalls[name], tracedCalls[name], tracedCalls[name], 1
	e.spans = rec
	return e
}

// tracedPass reruns each configured workload with observability on, one
// client and fixed call counts, recording a span per round and per sampled
// call; then it probes every layer. Spans stay in memory until the end.
func tracedPass(cfg config, res *result) error {
	rec := newSpanRec()
	main := rec.track()
	defer obs.SetEnabled(false)
	res.Layers = map[string]layerValue{}
	set := func(name string, v float64, base string) {
		for _, l := range perLayer {
			if l.Name == name {
				res.Layers[name] = layerValue{Value: v, Unit: l.Unit, Layer: l.Layer, Moves: l.Moves, Base: base}
				return
			}
		}
	}

	var passExtra map[string]float64
	for _, name := range cfg.workloads {
		wallStart := time.Now()
		var base, traced []float64
		var rounds []roundOut
		for pair := 0; pair < overheadPairs; pair++ {
			obs.SetEnabled(false)
			o, err := workloadFuncs[name](cfg.tracedEnv(name, nil))
			if err != nil {
				return fmt.Errorf("%s, untraced base: %w", name, err)
			}
			base = append(base, o.OpsPerS)

			obs.SetEnabled(true)
			e := cfg.tracedEnv(name, rec)
			e.roundID = rec.newID()
			start := time.Now()
			o, err = workloadFuncs[name](e)
			obs.SetEnabled(false)
			if err != nil {
				return fmt.Errorf("%s, traced: %w", name, err)
			}
			main.addID(e.roundID, "round:"+name, 0, start, time.Now(), 0)
			traced = append(traced, o.OpsPerS)
			rounds = append(rounds, o)
		}
		w := aggregate(name, rounds)
		w.WallS = time.Since(wallStart).Seconds()
		res.Workloads = append(res.Workloads, w)
		passExtra = w.Extra

		b, t := summarize(base).Median, summarize(traced).Median
		if len(cfg.workloads) == 1 {
			set("obs.base_ops_per_s", b, "untraced "+name+", one client, fixed count")
			set("obs.overhead_pct", 100*(1-t/b), fmt.Sprintf("%.6g ops/s untraced on %s", b, name))
		}
	}

	obs.SetEnabled(true)
	probeEnv := cfg.tracedEnv("", rec)
	probes, err := runProbes(probeEnv, res.Calibration)
	obs.SetEnabled(false)
	if err != nil {
		return err
	}
	for name, v := range probes {
		set(name, v, "")
	}
	// The rows that belong to a workload, not to a probe: with one workload
	// they come from its traced rounds; with several they are left out, and
	// each workload's own values are in its extra block.
	if len(cfg.workloads) == 1 {
		for _, name := range []string{"comm.frames_per_flush", "comm.bytes_per_flush", "comm.rpc_errors",
			"comm.rpc_timeouts", "dist.rpc_retries", "dist.redials", "dist.fenced"} {
			set(name, passExtra[name], cfg.workloads[0]+", traced rounds")
		}
	}
	return rec.writeTrace(cfg.traceOut)
}
