// Package obs is the unified observability core: atomic counters, gauges,
// fixed-bucket latency histograms, and per-task trace-event rings, all
// registered by name in a Registry and exported as a Prometheus text page,
// an expvar-style JSON snapshot, or a Chrome trace-event JSON file.
//
// Design rules (see DESIGN.md "Observability"):
//
//   - Hot paths pay one predictable branch when observability is off: every
//     instrumentation site is gated on On(), a single package-global
//     atomic.Bool load. No timestamps are taken and no counters touched
//     until it returns true.
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
// the seed-replayable deterministic domain enforced by the seedpure
// analyzer; deterministic-domain files must not import it (rcuvet flags
// the import).
package obs

import "sync/atomic"

// enabled is the single global switch. Off by default: an un-opted-in run
// pays one atomic load + branch per instrumentation site and nothing else.
var enabled atomic.Bool

// On reports whether observability is enabled. Instrumentation sites gate on
// it before taking timestamps or touching counters.
func On() bool { return enabled.Load() }

// SetEnabled flips the global switch. It is safe to call at any time, but
// counters accumulated while enabled are not rewound by disabling; use
// Registry.Reset for A/B runs.
func SetEnabled(v bool) { enabled.Store(v) }

// Default is the process-global registry. Package-scoped instrumentation
// (ebr, qsbr defaults) registers here; components that can have several
// instances per process (dist nodes, locale clusters) create their own
// registries so tests and co-located nodes do not share counters.
var Default = NewRegistry()

// Count returns (creating if needed) a counter in the Default registry.
func Count(name string) *Counter { return Default.Counter(name) }
