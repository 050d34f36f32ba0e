package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

const resultSchema = "rcuarray-benchmark/v1"

// metricResult is one metric on one workload: the median of Values is the
// reported value; the values and their sample counts sit beside it.
type metricResult struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	summary
	// Values holds one value per round, except for setup_s, where it holds
	// every set-up the run timed: a round repeats its set-up, the first
	// set-ups of a process pay for growing the heap, and the median over all
	// of them is steadier than a median of five round medians.
	Values []float64 `json:"values"`
	// Samples is, per round, how many samples the round's value rests on
	// (latency samples for a percentile, operations for a rate, set-ups).
	Samples []int64 `json:"samples"`
	// Missing counts rounds that could not report the metric (a percentile
	// without ten samples beyond it).
	Missing int `json:"missing,omitempty"`
	// Pooled marks a percentile taken over the pooled samples of all rounds
	// because no single round had ten samples beyond it.
	Pooled bool `json:"pooled,omitempty"`
}

type workloadResult struct {
	Name       string                  `json:"name"`
	Op         string                  `json:"op"`
	Counts     string                  `json:"counts"`
	Metrics    map[string]metricResult `json:"metrics"`
	Attempted  int64                   `json:"attempted"`
	Failed     int64                   `json:"failed"`
	FailedFrac float64                 `json:"failed_frac"`
	MemMB      float64                 `json:"mem_mb"` // informational, not gated
	WallS      float64                 `json:"wall_s"`
	Extra      map[string]float64      `json:"extra,omitempty"` // medians over rounds
	Notes      []string                `json:"notes,omitempty"`
}

type layerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Layer string  `json:"layer"`
	Moves string  `json:"moves"`
	// Base is what a ratio or percentage is of, where the row is one.
	Base string `json:"base,omitempty"`
}

type result struct {
	Schema      string                `json:"schema"`
	Seed        uint64                `json:"seed"`
	Seconds     float64               `json:"seconds"`
	Rounds      int                   `json:"rounds"`
	WindowS     float64               `json:"window_s"`
	Clients     int                   `json:"clients"`
	Traced      bool                  `json:"traced"`
	Host        hostInfo              `json:"host"`
	Calibration calibration           `json:"calibration"`
	Workloads   []workloadResult      `json:"workloads"`
	Layers      map[string]layerValue `json:"layers,omitempty"`
	Warnings    []string              `json:"warnings,omitempty"`
}

func (r *result) workload(name string) *workloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

func (r *result) writeFile(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultSchema)
	}
	return &r, nil
}

// Verdicts of one compared (workload, metric) pair.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

type compareRow struct {
	Workload, Metric, Unit string
	A, B                   float64
	Diff                   float64 // relative worsening of B against A; negative is better
	Bound                  float64
	Verdict                string
}

// worsening is how much worse b is than a as a share of a, by the metric's
// direction.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compare judges run b against baseline a. A pair is worse when b's median
// is worse than a's by more than the bound; it is unresolved instead when
// the round-to-round spread of either run is wider than the bound and the
// two runs' rounds overlap, because then the runs cannot tell the two apart.
// failedWorse reports a workload whose failed_frac rose, which fails the
// comparison whatever the timings say.
func compare(a, b *result) (rows []compareRow, failedWorse []string) {
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			continue
		}
		if wb.FailedFrac > wa.FailedFrac {
			failedWorse = append(failedWorse, wa.Name)
		}
		for _, m := range endToEnd {
			ma, oka := wa.Metrics[m.Name]
			mb, okb := wb.Metrics[m.Name]
			if !oka || !okb || len(ma.Values) == 0 || len(mb.Values) == 0 {
				continue
			}
			row := compareRow{Workload: wa.Name, Metric: m.Name, Unit: m.Unit,
				A: ma.Median, B: mb.Median, Bound: m.Bound, Verdict: verdictOK}
			row.Diff = worsening(m.Better, ma.Median, mb.Median)
			if row.Diff > m.Bound {
				row.Verdict = verdictWorse
				wide := ma.spread() > m.Bound || mb.spread() > m.Bound
				overlap := ma.Min <= mb.Max && mb.Min <= ma.Max
				if wide && overlap {
					row.Verdict = verdictUnresolved
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, failedWorse
}

// printCompare writes one row per pair and returns whether the comparison
// passes (no worse row, no higher failed_frac).
func printCompare(w io.Writer, rows []compareRow, failedWorse []string) bool {
	pass := len(failedWorse) == 0
	fmt.Fprintf(w, "%-13s %-10s %-4s %14s %14s %8s %6s  %s\n", "workload", "metric", "unit", "a", "b", "worse by", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %-10s %-4s %14.4f %14.4f %7.1f%% %5.0f%%  %s\n",
			r.Workload, r.Metric, r.Unit, r.A, r.B, 100*r.Diff, 100*r.Bound, r.Verdict)
		if r.Verdict == verdictWorse {
			pass = false
		}
	}
	sort.Strings(failedWorse)
	for _, name := range failedWorse {
		fmt.Fprintf(w, "%-13s failed_frac is higher in b: worse\n", name)
	}
	return pass
}
