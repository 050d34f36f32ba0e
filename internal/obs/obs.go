// Package obs is the unified observability core: atomic counters, gauges,
// fixed-bucket latency histograms, and per-task trace-event rings, all
// registered by name in a Registry and exported as a Prometheus text page,
// an expvar-style JSON snapshot, or a Chrome trace-event JSON file.
//
// Design rules (see DESIGN.md "Observability"):
//
//   - Hot paths pay one predictable branch when observability is off, and
//     the gate lives in obs's own types rather than at the call sites:
//     Ring.Begin/End/Instant/Complete check On(), a single package-global
//     atomic.Bool load, in their inlinable bodies; a latency is taken only
//     as a Stamp from Start, which is zero (no clock read) while off, and
//     recorded only through Histogram.Since or Ring.Complete, which record
//     nothing for a zero Stamp.
//   - Enabled hot paths are allocation-free: handles (Counter, Gauge,
//     Histogram, Ring) are resolved once at construction time and stored in
//     the instrumented object; the per-event cost is one or two atomic adds.
//     time.Now is reserved for slow paths (grace periods, resizes, RPCs).
//   - All handle methods tolerate a nil receiver (no-op), so optional wiring
//     never needs nil checks at the call site.
//   - Metric names follow Prometheus conventions and may carry labels
//     inline: "comm_rpc_ns{op=\"GET\",peer=\"n1\"}". The registry treats the
//     full string as the identity; exporters split base name from labels.
//
// obs reads the wall clock (time.Now) and is therefore explicitly OUTSIDE
// the seed-replayable deterministic domain; deterministic-domain files must
// not import it (the root package's TestDeterministicDomains fails on the
// import).
package obs

import (
	"sync/atomic"
	"time"
)

// enabled is the single global switch. Off by default: an un-opted-in run
// pays one atomic load + branch per instrumentation site and nothing else.
var enabled atomic.Bool

// On reports whether observability is enabled. Rings, Start and Since gate
// on it themselves; call sites consult it only to skip counter traffic.
func On() bool { return enabled.Load() }

// SetEnabled flips the global switch. It is safe to call at any time, but
// counters accumulated while enabled are not rewound by disabling; use
// Registry.Reset for A/B runs.
func SetEnabled(v bool) { enabled.Store(v) }

// epoch anchors Stamp readings on the monotonic clock.
var epoch = time.Now()

// Stamp is a reading of obs's monotonic clock: nanoseconds since epoch, plus
// one so that no reading is zero. The zero Stamp is what Start returns while
// observability is off, and it times nothing.
type Stamp int64

func now() Stamp { return Stamp(time.Since(epoch)) + 1 }

// Start begins a timed interval: a clock reading while observability is on,
// the zero Stamp — no clock read — while it is off. Close the interval with
// Histogram.Since or Ring.Complete.
func Start() Stamp {
	if !enabled.Load() {
		return 0
	}
	return now()
}

// Elapsed returns the nanoseconds since s, or 0 for the zero Stamp.
func (s Stamp) Elapsed() int64 {
	if s == 0 {
		return 0
	}
	return int64(now() - s)
}

// Default is the process-global registry. Package-scoped instrumentation
// (ebr, qsbr defaults) registers here; components that can have several
// instances per process (dist nodes, locale clusters) create their own
// registries so tests and co-located nodes do not share counters.
var Default = NewRegistry()

// Count returns (creating if needed) a counter in the Default registry.
func Count(name string) *Counter { return Default.Counter(name) }
