package dist

import "rcuarray/internal/obs"

// Observability for the distributed layer.
//
// The node's protocol counters (installs, aborts, fenced rejections, local
// block population) are folded into an obs.Registry instead of living as raw
// atomics on ArrayNode: /metrics and the NodeStats RPC then read the same
// source of truth. They count unconditionally — NodeStats is protocol state
// the resilience tests assert on, not optional telemetry — which costs the
// same as the atomics they replace. Only timestamps and trace-ring writes
// depend on the global obs.On() switch, and obs's types check it.

// nodeTrace carries an ArrayNode's interned trace names and its rings. The
// rings are created at configure time (the node id, which keys the track,
// is unknown before that); until then they are nil, which no-ops like a
// disabled ring.
type nodeTrace struct {
	tr       *obs.Tracer
	ring     *obs.Ring // install/abort track, serialized by ArrayNode.mu
	lockRing *obs.Ring // lease track, serialized by ArrayNode.lockMu
	nInstall obs.NameID
	nAbort   obs.NameID
	nFenced  obs.NameID
	nLease   obs.NameID
	nRegion  obs.NameID
}

func (nt *nodeTrace) init(tr *obs.Tracer) {
	nt.tr = tr
	nt.nInstall = tr.Name("node.install")
	nt.nAbort = tr.Name("node.abort")
	nt.nFenced = tr.Name("node.fenced")
	nt.nLease = tr.Name("node.lease_superseded")
	nt.nRegion = tr.Name("node.region_flip")
}

// driverTracePid is the trace track for the driver's resize spans. Node
// tracks use node ids (0..n-1); the driver sits far above them.
const driverTracePid = 1 << 16

// driverObs bundles the driver's resilience counters and resize-phase
// instrumentation. Counters count unconditionally (the chaos tests
// cross-check them against the fault injector's plan, which does not know
// about the enable switch); histograms and spans record only while
// observability is on, because they take timestamps.
type driverObs struct {
	reg *obs.Registry

	retries    *obs.Counter // dist_rpc_retries_total: backoff sleeps taken
	transients *obs.Counter // dist_transient_errors_total: failed attempts
	redials    *obs.Counter // dist_redials_total: replacement dials
	grows      *obs.Counter // dist_grows_total: resizes started
	aborted    *obs.Counter // dist_grow_aborts_total: resizes rolled back

	lockWaitNs *obs.Histogram // AcquireLock, including held-lease backoff
	allocNs    *obs.Histogram // round-robin block allocation fan-out
	installNs  *obs.Histogram // fenced table install fan-out
	growNs     *obs.Histogram // whole resize

	ring   *obs.Ring // driver resize track; written only under the lease
	nGrow  obs.NameID
	nAlloc obs.NameID
	nInst  obs.NameID
	nAbort obs.NameID

	// spans mints root trace/span ids for driver operations. Seeded from
	// Options.Seed, so a replayed run (same seed, same operation order)
	// produces the same trace topology; child spans of one operation are
	// derived from its root id (obs.DeriveSpan), so fan-out goroutine
	// interleaving cannot perturb them.
	spans *obs.SpanSource
}

func newDriverObs(r *obs.Registry, seed uint64) *driverObs {
	tr := r.Tracer()
	return &driverObs{
		reg:        r,
		spans:      obs.NewSpanSource(seed),
		retries:    r.Counter("dist_rpc_retries_total"),
		transients: r.Counter("dist_transient_errors_total"),
		redials:    r.Counter("dist_redials_total"),
		grows:      r.Counter("dist_grows_total"),
		aborted:    r.Counter("dist_grow_aborts_total"),
		lockWaitNs: r.Histogram("dist_lock_wait_ns"),
		allocNs:    r.Histogram("dist_alloc_ns"),
		installNs:  r.Histogram("dist_install_ns"),
		growNs:     r.Histogram("dist_grow_ns"),
		ring:       tr.Ring(driverTracePid, 0),
		nGrow:      tr.Name("dist.grow"),
		nAlloc:     tr.Name("dist.alloc"),
		nInst:      tr.Name("dist.install"),
		nAbort:     tr.Name("dist.abort"),
	}
}

// noteRetry counts one backoff-and-retry of a transient failure. Nil-safe.
func (o *driverObs) noteRetry() {
	if o != nil {
		o.retries.Inc()
	}
}

// noteTransient counts one transiently failed attempt (RPC, dial, or
// redial). Nil-safe.
func (o *driverObs) noteTransient() {
	if o != nil {
		o.transients.Inc()
	}
}

// growSpans times a Grow's phases. All ring writes happen between lock
// acquisition and release: the lease serializes resizes cluster-wide, so the
// driver track keeps a single writer even when multiple goroutines call
// Grow concurrently (the losers are parked inside AcquireLock, which never
// touches the ring).
type growSpans struct {
	o     *driverObs
	t0    obs.Stamp // whole-resize start
	phase obs.Stamp // current phase start
}

// inertDriverObs stands in for a driver without a registry: every handle
// in it is nil, and a nil handle no-ops.
var inertDriverObs driverObs

func (gs *growSpans) start(o *driverObs) {
	if o == nil {
		o = &inertDriverObs
	}
	gs.o = o
	o.grows.Inc()
	gs.t0 = obs.Start()
}

// acquired stamps the end of the lock wait and opens the resize span (the
// first ring write, now safely under the lease).
func (gs *growSpans) acquired() {
	gs.o.lockWaitNs.Since(gs.t0)
	gs.o.ring.Begin(gs.o.nGrow)
}

func (gs *growSpans) beginAlloc() {
	gs.phase = obs.Start()
	gs.o.ring.Begin(gs.o.nAlloc)
}

func (gs *growSpans) endAlloc() {
	gs.o.ring.End(gs.o.nAlloc)
	gs.o.allocNs.Since(gs.phase)
}

func (gs *growSpans) beginInstall() {
	gs.phase = obs.Start()
	gs.o.ring.Begin(gs.o.nInst)
}

func (gs *growSpans) endInstall() {
	gs.o.ring.End(gs.o.nInst)
	gs.o.installNs.Since(gs.phase)
}

// abort marks the rollback (still under the lease) and closes the resize
// span. The abort counter increments even with observability off.
func (gs *growSpans) abort() {
	gs.o.aborted.Inc()
	gs.o.ring.Instant(gs.o.nAbort, 0)
	gs.o.ring.End(gs.o.nGrow)
	gs.o.growNs.Since(gs.t0)
}

// commit closes the resize span before the lease is released.
func (gs *growSpans) commit() {
	gs.o.ring.End(gs.o.nGrow)
	gs.o.growNs.Since(gs.t0)
}
