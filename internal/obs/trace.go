package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// RingSize is the number of event slots per trace ring (power of two). At
// ~48 bytes of payload per slot a ring is ~32 KiB; one ring per (locale,
// task) track keeps the flight recorder bounded no matter how long a run is.
const RingSize = 512

const ringMask = RingSize - 1

// Event phases, matching the Chrome trace-event format "ph" field.
const (
	PhaseBegin    = 'B' // duration-slice begin
	PhaseEnd      = 'E' // duration-slice end
	PhaseInstant  = 'i' // instant event
	PhaseComplete = 'X' // self-contained slice: ts = start, Arg = duration ns
)

// slot is one ring entry. Every word is atomic so snapshotting under the
// race detector is clean; seq is the seqlock word: 2w+1 while the writer is
// filling the slot on wrap w, 2w+2 once stable. A reader that sees an odd
// seq, or different seqs before and after reading the payload, discards the
// slot as torn. Because seq increases monotonically with each wrap, a slot
// reused during a snapshot is always detected (no ABA).
type slot struct {
	seq  atomic.Uint64
	ts   atomic.Int64  // ns since tracer start
	name atomic.Uint32 // interned name id
	ph   atomic.Uint32 // PhaseBegin/PhaseEnd/PhaseInstant/PhaseComplete
	arg  atomic.Int64  // optional numeric payload (duration ns for 'X')
	id   atomic.Uint64 // span/flow id (0 = none); links RPC spans cross-node
}

// Ring is a mostly-single-writer, many-reader ring of trace events for one
// (pid, tid) track — by convention pid is the locale and tid the task slot.
// The owning task calls Begin/End/Instant; any goroutine may snapshot
// concurrently via the tracer. Every write method checks the On() gate in
// its own inlinable body, and a nil *Ring is a no-op, so callers hold an
// unconditional handle and write unconditionally: a disabled run pays one
// branch per event and no call.
//
// Nested Begin/End pairs still require a single writer (nesting is
// reconstructed from write order). Self-contained events — Instant and
// Complete — tolerate concurrent writers: each write claims a distinct slot
// via the atomic head, so two producers only collide when one laps the
// other by a full RingSize, and the collision garbles one slot (bounded by
// the seqlock), never the ring. The comm layer exploits this to record RPC
// spans from concurrent completion goroutines on one ring per peer.
type Ring struct {
	pid, tid int
	tr       *Tracer
	head     atomic.Uint64 // next logical write index
	slots    [RingSize]slot
}

// write appends one event stamped with the current trace clock.
func (r *Ring) write(ph uint32, name uint32, arg int64) {
	r.writeAt(ph, name, arg, int64(now()-r.tr.start), 0)
}

// writeAt appends one event with an explicit timestamp and span id.
func (r *Ring) writeAt(ph uint32, name uint32, arg, ts int64, id uint64) {
	i := r.head.Add(1) - 1
	s := &r.slots[i&ringMask]
	wrap := i / RingSize
	s.seq.Store(2*wrap + 1)
	s.ts.Store(ts)
	s.name.Store(name)
	s.ph.Store(ph)
	s.arg.Store(arg)
	s.id.Store(id)
	s.seq.Store(2*wrap + 2)
}

// Begin records the start of a named duration slice.
func (r *Ring) Begin(name NameID) {
	if r != nil && enabled.Load() {
		r.write(PhaseBegin, uint32(name), 0)
	}
}

// End records the end of the innermost open slice with the same name.
func (r *Ring) End(name NameID) {
	if r != nil && enabled.Load() {
		r.write(PhaseEnd, uint32(name), 0)
	}
}

// Instant records a point event with a numeric payload.
func (r *Ring) Instant(name NameID, arg int64) {
	if r != nil && enabled.Load() {
		r.write(PhaseInstant, uint32(name), arg)
	}
}

// Complete records a self-contained slice ('X') from start, a Stamp from
// Start, to now; id is an optional span id that cross-node merging uses to
// draw flow arrows. A zero start records nothing. Unlike Begin/End pairs,
// Complete events are safe to write from concurrent goroutines on one ring.
func (r *Ring) Complete(name NameID, start Stamp, id uint64) {
	if r != nil && start != 0 && enabled.Load() {
		r.complete(name, start, id)
	}
}

func (r *Ring) complete(name NameID, start Stamp, id uint64) {
	r.writeAt(PhaseComplete, uint32(name), start.Elapsed(), int64(start-r.tr.start), id)
}

// TraceEvent is one stable event recovered from a ring snapshot. The JSON
// form is the wire format of the amTraceDump RPC, so the fields are tagged.
type TraceEvent struct {
	Pid     int    `json:"pid"`
	Tid     int    `json:"tid"`
	TsNanos int64  `json:"ts"`
	Name    string `json:"name"`
	Phase   byte   `json:"ph"`
	Arg     int64  `json:"arg,omitempty"`
	ID      uint64 `json:"id,omitempty"` // span/flow id (0 = none)
	index   uint64 // logical write index, for stable sorting
}

// snapshot collects the stable events currently in the ring. Torn or
// in-progress slots are skipped, not retried: the flight recorder favors
// availability over completeness.
func (r *Ring) snapshot(names []string, out []TraceEvent) []TraceEvent {
	for i := range r.slots {
		s := &r.slots[i]
		seq1 := s.seq.Load()
		if seq1 == 0 || seq1&1 == 1 {
			continue // empty or mid-write
		}
		ts := s.ts.Load()
		name := s.name.Load()
		ph := s.ph.Load()
		arg := s.arg.Load()
		id := s.id.Load()
		if s.seq.Load() != seq1 {
			continue // torn: writer lapped us
		}
		n := "?"
		if int(name) < len(names) {
			n = names[name]
		}
		wrap := seq1/2 - 1
		out = append(out, TraceEvent{
			Pid: r.pid, Tid: r.tid, TsNanos: ts,
			Name: n, Phase: byte(ph), Arg: arg, ID: id,
			index: wrap*RingSize + uint64(i),
		})
	}
	return out
}

// NameID is an interned event name. Interning keeps the ring write path
// free of string headers (a uint32 store instead).
type NameID uint32

// Tracer owns the trace clock, the name table, and the set of rings. One
// tracer per registry; tracks are keyed (pid, tid) = (locale, task slot).
type Tracer struct {
	start Stamp // the trace clock's zero

	mu    sync.Mutex
	names []string
	ids   map[string]NameID
	rings map[[2]int]*Ring
	order [][2]int // ring creation order, for stable export
}

func newTracer() *Tracer {
	return &Tracer{
		start: now(),
		ids:   make(map[string]NameID),
		rings: make(map[[2]int]*Ring),
	}
}

// Now returns nanoseconds since the tracer's epoch — the trace clock every
// ring timestamp is relative to. Cluster merging exchanges Now() values over
// RPC to estimate per-node clock offsets.
func (t *Tracer) Now() int64 { return int64(now() - t.start) }

// Name interns s and returns its id. Call at construction time, not on the
// hot path.
func (t *Tracer) Name(s string) NameID {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := NameID(len(t.names))
	t.names = append(t.names, s)
	t.ids[s] = id
	return id
}

// Ring returns the ring for track (pid, tid), creating it if absent. The
// caller must be (or hand the ring to) the single writer for that track.
func (t *Tracer) Ring(pid, tid int) *Ring {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := [2]int{pid, tid}
	r, ok := t.rings[k]
	if !ok {
		r = &Ring{pid: pid, tid: tid, tr: t}
		t.rings[k] = r
		t.order = append(t.order, k)
	}
	return r
}

// Track is Ring while observability is on and nil — the no-op ring —
// while it is off: a span opened on it creates no ring in a disabled run.
func (t *Tracer) Track(pid, tid int) *Ring {
	if !enabled.Load() {
		return nil
	}
	return t.Ring(pid, tid)
}

// Events returns the stable events across all rings, ordered by timestamp
// (ties broken by write order). It is safe to call while writers run.
func (t *Tracer) Events() []TraceEvent {
	t.mu.Lock()
	names := t.names
	rings := make([]*Ring, 0, len(t.order))
	for _, k := range t.order {
		rings = append(rings, t.rings[k])
	}
	t.mu.Unlock()
	var out []TraceEvent
	for _, r := range rings {
		out = r.snapshot(names, out)
	}
	sortEvents(out)
	return out
}

// reset discards all rings and names (registry Reset).
func (t *Tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.names = nil
	t.ids = make(map[string]NameID)
	t.rings = make(map[[2]int]*Ring)
	t.order = nil
	t.start = now()
}

// sortEvents orders by timestamp, then track, then per-ring write index so
// a B sorts before its same-timestamp E.
func sortEvents(ev []TraceEvent) {
	sort.Slice(ev, func(i, j int) bool {
		a, b := ev[i], ev[j]
		if a.TsNanos != b.TsNanos {
			return a.TsNanos < b.TsNanos
		}
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		return a.index < b.index
	})
}
