package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"
)

// env is what one round of one workload runs with.
type env struct {
	seed    uint64
	clients int // closed-loop clients: numClients, or 1 in the traced pass

	// A measured phase ends by time (window > 0) or by a fixed number of
	// timed calls (calls > 0); the traced pass uses counts so that counters
	// repeat exactly. warm is skipped in count mode.
	warm   time.Duration
	window time.Duration
	calls  int
	// grows is serve_resize's fixed Grow count (both modes), so both sides of
	// a later A/B walk the same table sizes.
	grows int
	// groups is how many fresh clusters one recover round restarts, cycles
	// how many restarts each of them serves.
	groups, cycles int
	// setupOnly makes a workload return as soon as its set-up is timed.
	setupOnly bool

	// expect is what a read is compared with. It is val everywhere except in
	// the negative test, which perturbs it to prove the checks can fail.
	expect func(int) int64

	tmpRoot string // parent of every data dir, inside the checkout

	spans   *spanRec // nil unless traced
	roundID int64    // parent of every op span of this round
}

// roundOut is what one round of one workload produced.
type roundOut struct {
	Setups    []float64     // seconds, one per set-up the round performed
	Elapsed   time.Duration // of the measured phase
	Ops       int64         // verified element operations in the measured phase
	OpsPerS   float64       // sum of the counted clients' own rates
	Attempted int64         // every operation and end-of-round check attempted
	Failed    int64         // errors + wrong values + failed end-of-round checks
	Lat       []int64       // sorted ns samples of the workload's timed call
	MemSys    uint64        // runtime.MemStats.Sys at the end of the phase
	// Extra carries informational numbers that are not gated (the reader's
	// latency beside a resize, cycle counts, recovery counters).
	Extra map[string]float64
	Notes []string // first few failed checks, for the report
}

// opGen generates one client's operation stream. The element space is
// split by offset within each block, so every client touches every block
// (and so every locale or node) but no element is shared: the array's
// elements are plain memory, and a Store racing a Load of the same index
// would be a data race by Go's memory model.
type opGen struct {
	r      rng
	span   int // offsets per block owned by this client
	offset int // first owned offset
}

func newOpGen(seed uint64, client, clients int) opGen {
	span := blockSize / clients
	return opGen{r: clientRNG(seed, client), span: span, offset: client * span}
}

// index returns an owned element index below elems (a multiple of blockSize).
func (g *opGen) index(elems int) int {
	x := g.r.intn(elems / blockSize * g.span)
	return x/g.span*blockSize + g.offset + x%g.span
}

// write reports whether the next call writes (writePct of calls).
func (g *opGen) write() bool { return g.r.intn(100) < writePct }

// call is the outcome of one client call.
type call struct {
	ok, bad int
	// untimed calls (writes, shrinks) are excluded from the latency samples
	// and from count-mode's call budget.
	untimed bool
	// self, when nonzero, is the latency the call measured itself because
	// only part of it is the timed operation (recover).
	self time.Duration
}

// phase values shared between a leader loop and its follower.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseDone
)

// clientRun is one closed-loop client's tally over the measured phase.
type clientRun struct {
	ops, attempted, failed int64
	lat                    []int64
	elapsed                time.Duration
	dropped                int64 // samples beyond the preallocated capacity
	role                   int
}

// latCap bounds one client's samples per round (8 MiB); the index workloads
// produce about 150k chunk samples per second per client.
const latCap = 1 << 20

// newClientRun preallocates room for samples latency samples, so that the
// measured loop never grows the slice.
func newClientRun(samples int) clientRun {
	if samples <= 0 || samples > latCap {
		samples = latCap
	}
	return clientRun{lat: make([]int64, 0, samples)}
}

// tally counts one call's operations.
func (r *clientRun) tally(c call) {
	r.ops += int64(c.ok)
	r.attempted += int64(c.ok + c.bad)
	r.failed += int64(c.bad)
}

// sample records one timed call's latency.
func (r *clientRun) sample(d time.Duration) {
	if len(r.lat) < cap(r.lat) {
		r.lat = append(r.lat, d.Nanoseconds())
	} else {
		r.dropped++
	}
}

// loop is one closed-loop client: it issues fn back to back, first for the
// warm-up, then for the measured phase, timing each call with one clock read
// per call. warmCalls/calls override the env's time limits with counts.
type loop struct {
	e         *env
	name      string        // span name of one call
	track     *spanTrack    // nil unless traced
	phase     *atomic.Int32 // leader: published for a follower; may be nil
	warmCalls int
	calls     int
}

func (e *env) newLoop(name string) *loop {
	return &loop{e: e, name: name, track: e.spans.track(), calls: e.calls}
}

func (l *loop) setPhase(p int32) {
	if l.phase != nil {
		l.phase.Store(p)
	}
}

func (l *loop) run(fn func() call) clientRun {
	e := l.e
	if l.warmCalls > 0 {
		for n := 0; n < l.warmCalls; {
			if c := fn(); !c.untimed {
				n++
			}
		}
	} else if l.calls == 0 && e.warm > 0 {
		for start := time.Now(); time.Since(start) < e.warm; {
			fn()
		}
	}
	out := newClientRun(l.calls)
	l.setPhase(phaseMeasure)
	start := time.Now()
	now := start
	for timed := 0; ; {
		t0 := now
		c := fn()
		now = time.Now()
		out.tally(c)
		if !c.untimed {
			d := now.Sub(t0)
			if c.self != 0 {
				d = c.self
			}
			out.sample(d)
			if l.track != nil && timed%spanEvery == 0 {
				l.track.add(l.name, e.roundID, now.Add(-d), now, 0)
			}
			timed++
		}
		if l.calls > 0 {
			if timed >= l.calls {
				break
			}
		} else if now.Sub(start) >= e.window {
			break
		}
	}
	out.elapsed = now.Sub(start)
	l.setPhase(phaseDone)
	return out
}

// follow is the other side of a resize workload: a client that runs for as
// long as the leader does and counts only what it did during the leader's
// measured phase.
func (e *env) follow(name string, phase *atomic.Int32, fn func() call) clientRun {
	track := e.spans.track()
	out := newClientRun(0)
	var start time.Time
	now := time.Now()
	measuring := false
	for n := 0; ; n++ {
		p := phase.Load()
		if p == phaseDone {
			break
		}
		if p == phaseMeasure && !measuring {
			measuring = true
			start = now
		}
		t0 := now
		c := fn()
		now = time.Now()
		if !measuring {
			continue
		}
		out.tally(c)
		out.sample(now.Sub(t0))
		if track != nil && n%spanEvery == 0 {
			track.add(name, e.roundID, t0, now, 0)
		}
	}
	if measuring {
		out.elapsed = now.Sub(start)
	}
	return out
}

// Roles of a client in its round: on most workloads every client counts
// towards both the rate and the latency samples. On resize_ebr ops_per_s is
// the reader's rate and the timed call is the grower's Grow; on serve_resize
// both are the reader's and the grower only has its operations checked.
const (
	roleBoth = iota
	roleRate
	roleLat
	roleNone
)

// finish folds the clients of one round into a roundOut.
func finish(setup time.Duration, clients ...clientRun) roundOut {
	out := roundOut{Setups: []float64{setup.Seconds()}, Extra: map[string]float64{}}
	for _, c := range clients {
		out.Attempted += c.attempted
		out.Failed += c.failed
		if c.dropped > 0 {
			out.Extra["lat_samples_dropped"] += float64(c.dropped)
		}
		if c.role == roleBoth || c.role == roleRate {
			out.Ops += c.ops
			if c.elapsed > out.Elapsed {
				out.Elapsed = c.elapsed
			}
			// Clients stop within one call of each other; summing their
			// own rates needs no barrier between them.
			if c.elapsed > 0 {
				out.OpsPerS += float64(c.ops) / c.elapsed.Seconds()
			}
		}
		if c.role == roleBoth || c.role == roleLat {
			out.Lat = append(out.Lat, c.lat...)
		}
	}
	slices.Sort(out.Lat)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.MemSys = ms.Sys
	return out
}

// check records one end-of-round check against the round's tally.
func (o *roundOut) check(ok bool, format string, args ...any) {
	o.Attempted++
	if !ok {
		o.Failed++
		if len(o.Notes) < 8 {
			o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
		}
	}
}
