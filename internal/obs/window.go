package obs

import "sync"

// Window tracks an SLO burn rate over a rolling window of an existing
// histogram: the fraction of recent observations over the SLO threshold,
// divided by the error budget. A burn rate of 1.0 means the service is
// spending its budget exactly as fast as it accrues; above 1.0 it is
// burning through it (Google SRE workbook convention). Gating a serving
// benchmark on burn rather than a point p99 makes the gate robust to a
// single early outlier: the window forgets.
//
// The window is sample-based, not timer-based: the owner calls Tick
// periodically (every few hundred ms suits a ~2 s window); each Tick
// snapshots the histogram's cumulative (count, over-SLO count) pair and the
// window covers the last slots ticks. Reads between Ticks see the last
// completed window. All methods are safe for concurrent use; Tick callers
// should be a single goroutine.
type Window struct {
	h     *Histogram
	sloNs int64
	// budget is the allowed fraction of observations over sloNs, e.g. 0.01
	// for a 99% objective.
	budget float64

	mu      sync.Mutex
	samples []windowSample // ring of cumulative snapshots
	next    int
	filled  bool
}

type windowSample struct{ count, over uint64 }

// NewWindow wraps h with a rolling window of slots ticks against the given
// SLO threshold (nanoseconds) and error budget (fraction in (0,1]).
// Thresholds resolve at the histogram's log2 bucket granularity — see
// Histogram.CountOver; powers of two are exact.
func NewWindow(h *Histogram, sloNs int64, budget float64, slots int) *Window {
	if slots < 2 {
		slots = 2
	}
	if budget <= 0 {
		budget = 0.01
	}
	w := &Window{h: h, sloNs: sloNs, budget: budget, samples: make([]windowSample, slots)}
	w.samples[0] = windowSample{h.Count(), h.CountOver(sloNs)}
	w.next = 1
	return w
}

// Tick records the current cumulative totals, advancing the window.
func (w *Window) Tick() {
	s := windowSample{w.h.Count(), w.h.CountOver(w.sloNs)}
	w.mu.Lock()
	w.samples[w.next] = s
	w.next++
	if w.next == len(w.samples) {
		w.next = 0
		w.filled = true
	}
	w.mu.Unlock()
}

// delta returns the (count, over) deltas between the oldest and newest
// samples currently in the window.
func (w *Window) delta() (count, over uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	newest := w.samples[(w.next+len(w.samples)-1)%len(w.samples)]
	oldest := w.samples[0]
	if w.filled {
		oldest = w.samples[w.next]
	}
	return newest.count - oldest.count, newest.over - oldest.over
}

// BurnRate returns the window's burn rate: (fraction over SLO) / budget.
// A window with no observations burns nothing.
func (w *Window) BurnRate() float64 {
	count, over := w.delta()
	if count == 0 {
		return 0
	}
	return (float64(over) / float64(count)) / w.budget
}

// Register exports the burn rate (in millionths, so the integer gauge keeps
// three decimal places of rate) and the window's over-SLO fraction as
// read-on-export gauges. Scrape names follow the base name: name_ppm.
func (w *Window) Register(r *Registry, name string) {
	r.GaugeFunc(name+"_ppm", func() int64 {
		return int64(w.BurnRate() * 1e6)
	})
}
