package ebr

import (
	"rcuarray/internal/obs"
)

// domainObs bundles the observability handles one domain reports into. The
// handles are resolved once (registry lookups are mutex-guarded) and held
// here so the instrumented paths stay allocation- and lock-free.
type domainObs struct {
	// grace is the grace-period duration histogram: one observation per
	// Synchronize, from epoch advance to last old-parity reader exit.
	grace *obs.Histogram
	// stalls counts epoch-advance stall passes: backoff waits spent in
	// Synchronize because an old-parity reader was still inside.
	stalls *obs.Counter
	// retries counts read-side verification failures (mirrors Domain
	// retries, but in the registry so /metrics can serve it).
	retries *obs.Counter
	// repins counts pinned-session budget exhaustions.
	repins *obs.Counter
}

func makeDomainObs(r *obs.Registry) *domainObs {
	return &domainObs{
		grace:   r.Histogram("ebr_grace_ns"),
		stalls:  r.Counter("ebr_grace_stall_passes_total"),
		retries: r.Counter("ebr_enter_retries_total"),
		repins:  r.Counter("ebr_pin_budget_exhausted_total"),
	}
}

// defaultDomainObs reports into the process-global registry; domains not
// claimed by Observe share it (their counts aggregate, which is what a
// process-wide /metrics page wants).
var defaultDomainObs = makeDomainObs(obs.Default)

// Observe redirects this domain's metrics into r — a dist node or a test
// gives each domain its own registry this way. Call before the domain sees
// concurrent use; it replaces the default process-global destination.
func (d *Domain) Observe(r *obs.Registry) { d.o.Store(makeDomainObs(r)) }

// obsHandles returns the domain's metric destination.
func (d *Domain) obsHandles() *domainObs {
	if o := d.o.Load(); o != nil {
		return o
	}
	return defaultDomainObs
}
