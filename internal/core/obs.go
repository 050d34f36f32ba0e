package core

import (
	"rcuarray/internal/locale"
	"rcuarray/internal/obs"
)

// arrayObs bundles the handles an array's resize slow path reports into.
// Handles live in the owning cluster's registry, so co-located arrays in
// one test process never cross their counters, and are resolved once in New
// (registry lookups take a mutex). Resize is the writer slow path, so it
// may take timestamps and ring lookups; the read path touches none of this
// beyond the striped op counters charged in Ref.Load/Store.
type arrayObs struct {
	tracer *obs.Tracer

	grows   *obs.Counter
	shrinks *obs.Counter

	lockNs       *obs.Histogram // WriteLock acquisition
	allocNs      *obs.Histogram // round-robin block allocation
	installNs    *obs.Histogram // snapshot install + synchronize, all locales
	freeNs       *obs.Histogram // victim-block free (Shrink/Destroy)
	regionFlipNs *obs.Histogram // one boundary-region flip + its grace period

	regionFlips *obs.Counter // boundary-region flips performed

	nGrow       obs.NameID // whole-resize spans on the initiator's track
	nShrink     obs.NameID
	nLock       obs.NameID
	nAlloc      obs.NameID
	nInstall    obs.NameID // per-locale install spans on each locale's track
	nFree       obs.NameID
	nRegionFlip obs.NameID // boundary-region flip spans on the initiator's track
	nRegionIdx  obs.NameID // instant carrying the flipped region's index
}

func newArrayObs(c *locale.Cluster) *arrayObs {
	r := c.Obs()
	tr := r.Tracer()
	return &arrayObs{
		tracer:       tr,
		grows:        r.Counter("core_grows_total"),
		shrinks:      r.Counter("core_shrinks_total"),
		lockNs:       r.Histogram("core_resize_lock_ns"),
		allocNs:      r.Histogram("core_resize_alloc_ns"),
		installNs:    r.Histogram("core_resize_install_ns"),
		freeNs:       r.Histogram("core_resize_free_ns"),
		regionFlipNs: r.Histogram("core_region_flip_ns"),
		regionFlips:  r.Counter("core_region_flips_total"),
		nGrow:        tr.Name("grow"),
		nShrink:      tr.Name("shrink"),
		nLock:        tr.Name("resize.lock"),
		nAlloc:       tr.Name("resize.alloc"),
		nInstall:     tr.Name("resize.install"),
		nFree:        tr.Name("resize.free"),
		nRegionFlip:  tr.Name("resize.region.flip"),
		nRegionIdx:   tr.Name("resize.region"),
	}
}

// resizeSpans times the phases of one resize and emits trace spans on the
// initiating task's track. Its ring is nil — a no-op — when observability
// was off at start, and its phase stamps are zero while off, so a disabled
// resize pays one branch per phase.
type resizeSpans struct {
	ring *obs.Ring
	t0   obs.Stamp
}

// start opens the whole-resize span (name) on the initiator's track.
func (rs *resizeSpans) start(o *arrayObs, t *locale.Task, name obs.NameID) {
	rs.ring = o.tracer.Track(t.Here().ID(), t.Slot())
	rs.ring.Begin(name)
}

// begin opens a phase span and stamps the phase start.
func (rs *resizeSpans) begin(name obs.NameID) {
	rs.t0 = obs.Start()
	rs.ring.Begin(name)
}

// end closes a phase span and feeds its duration to hist.
func (rs *resizeSpans) end(name obs.NameID, hist *obs.Histogram) {
	rs.ring.End(name)
	hist.Since(rs.t0)
}

// finish closes the whole-resize span.
func (rs *resizeSpans) finish(name obs.NameID) { rs.ring.End(name) }

// localeSpan opens a span on sub's own track (per-locale install work) and
// returns its ring, nil — a no-op — while observability is off.
func (o *arrayObs) localeSpan(sub *locale.Task, name obs.NameID) *obs.Ring {
	r := o.tracer.Track(sub.Here().ID(), sub.Slot())
	r.Begin(name)
	return r
}
