package core

import (
	"fmt"
	"unsafe"

	"rcuarray/internal/locale"
	"rcuarray/internal/memory"
	"rcuarray/internal/obs"
)

// Variant selects the reclamation algorithm, mirroring the paper's
// compile-time isQSBR parameter.
type Variant int

const (
	// VariantEBR uses the TLS-free epoch-based reclamation of Section
	// III-A: reads pay two atomic RMWs plus a verification load.
	VariantEBR Variant = iota
	// VariantQSBR uses the runtime checkpoint-based reclamation of
	// Section III-B: reads are unsynchronized; tasks must checkpoint.
	VariantQSBR
)

// String names the variant as in the paper's evaluation.
func (v Variant) String() string {
	switch v {
	case VariantEBR:
		return "EBRArray"
	case VariantQSBR:
		return "QSBRArray"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Options configures an Array.
type Options struct {
	// BlockSize is the element capacity of each distributed block
	// (Listing 1's compile-time BlockSize). Defaults to 1024.
	BlockSize int
	// Variant picks EBR or QSBR reclamation.
	Variant Variant
	// InitialCapacity, if positive, grows the array at construction.
	InitialCapacity int
	// FlatEBR pins each locale's EBR domain to the paper's exact
	// two-counter layout instead of striping the reader counters over
	// task slots. It exists for the A/B ablation benchmarks; production
	// arrays leave it false.
	FlatEBR bool
	// RegionBlocks is the region width in blocks for the two-level
	// directory + region-table metadata (see snapshot.go): resizes
	// publish per-region tables, so install work and its grace periods
	// scale with the touched regions, not the whole array. Defaults to
	// DefaultRegionBlocks.
	RegionBlocks int
	// PinBudget is the operation budget of a pinned read session (see
	// Reader) before it repins, bounding writer wait. Defaults to
	// ebr.DefaultPinBudget.
	PinBudget int
	// Hooks, if non-nil, carries test instrumentation; production arrays
	// leave it nil (the read path then pays one predictable nil check).
	Hooks *Hooks
}

// Point identifies an instrumentation point inside array operations.
type Point string

// PointIndexSnapLoaded fires inside Index after the snapshot pointer has
// been loaded and before it is dereferenced — the reclamation-hazard
// window. Under EBR the caller's read-side guard is held here; under QSBR
// the snapshot is only protected by the task not having checkpointed.
// Parking an operation at this point while resizes and checkpoints run on
// other tasks is how the deterministic lincheck schedules force
// resize-during-read and checkpoint-starvation interleavings.
const PointIndexSnapLoaded Point = "index-snap-loaded"

// PointInstallRegionFlipped fires on the resize initiator after a boundary
// region's extended table has been published on every locale, but before
// the wider directory is — the window in which a reader can observe region
// k's new table while every directory still bounds the old capacity. The
// mid-install lincheck schedules park the writer here.
const PointInstallRegionFlipped Point = "install-region-flipped"

// PointInstallDirPublished fires on the resize initiator after the new
// directory has been published on every locale (and, under EBR, its grace
// period has completed), before the write lock is released.
const PointInstallDirPublished Point = "install-dir-published"

// RegionEvent describes one region-level publication step of a resize, in
// the deterministic order the initiator performs them. The seed-replay
// regression test formats the event stream and asserts byte-for-byte
// stability across runs.
type RegionEvent struct {
	// Op is the resize operation: "grow", "shrink", or "destroy".
	Op string
	// Kind is the step: "flip" (boundary region republished through its
	// shared cell), "dir" (directory published), or "retire-batch"
	// (shrink/destroy batched region retirement).
	Kind string
	// Region is the flipped region's index for "flip", the region count
	// for "dir", and the retired-table count for "retire-batch".
	Region int
	// NBlocks is the addressable block count after the step.
	NBlocks int
}

// Hooks is optional test instrumentation threaded through Options. All
// fields may be nil.
type Hooks struct {
	// Yield is invoked at each instrumentation point on the calling
	// task's goroutine. A deterministic scheduler can park the operation
	// here (see internal/check.Driver.YieldPoint).
	Yield func(Point)
	// Region is invoked on the resize initiator after each region-level
	// publication step, in deterministic order (the seed-replay test
	// records the stream).
	Region func(RegionEvent)
}

// yield fires the instrumentation point if hooks are installed.
func (a *Array[T]) yield(p Point) {
	if h := a.opts.Hooks; h != nil && h.Yield != nil {
		h.Yield(p)
	}
}

// regionEvent reports a region-level publication step if hooks are installed.
func (a *Array[T]) regionEvent(ev RegionEvent) {
	if h := a.opts.Hooks; h != nil && h.Region != nil {
		h.Region(ev)
	}
}

// DefaultRegionBlocks is the region width, in blocks, used when Options does
// not set one.
const DefaultRegionBlocks = 8

func (o Options) withDefaults() Options {
	if o.BlockSize <= 0 {
		o.BlockSize = 1024
	}
	if o.RegionBlocks <= 0 {
		o.RegionBlocks = DefaultRegionBlocks
	}
	return o
}

// Array is a parallel-safe distributed resizable array of T. The zero value
// is not usable; construct with New. The descriptor itself is immutable and
// safely shared by any number of tasks.
type Array[T any] struct {
	pid       locale.PID
	cluster   *locale.Cluster
	opts      Options
	writeLock *locale.GlobalLock
	elemSize  int
	o         *arrayObs
}

// New creates an array distributed over the task's cluster. Construction
// privatizes one metadata instance per locale and allocates nothing until
// the first Grow (the paper's evaluation starts from zero capacity).
func New[T any](t *locale.Task, opts Options) *Array[T] {
	opts = opts.withDefaults()
	c := t.Cluster()
	pid := locale.Privatize(t, func(loc *locale.Locale) any {
		return newInstance[T](loc, opts)
	})
	var zero T
	a := &Array[T]{
		pid:       pid,
		cluster:   c,
		opts:      opts,
		writeLock: c.NewGlobalLock(0),
		elemSize:  int(unsafe.Sizeof(zero)),
		o:         newArrayObs(c),
	}
	if opts.InitialCapacity > 0 {
		a.Grow(t, opts.InitialCapacity)
	}
	return a
}

// Options returns the array's configuration.
func (a *Array[T]) Options() Options { return a.opts }

// BlockSize returns the block capacity in elements.
func (a *Array[T]) BlockSize() int { return a.opts.BlockSize }

// inst returns the calling locale's privatized metadata — Algorithm 3 line 4.
func (a *Array[T]) inst(t *locale.Task) *instance[T] {
	return locale.GetPrivatized[*instance[T]](t, a.pid)
}

// Ref is a reference to one element, the return-by-reference relaxation of
// Section III-C that lets update operations share the read path's
// performance. A Ref stays valid across resizes that *grow* the array
// (blocks are recycled, never moved); it is invalidated by Shrink of its
// region, which the block poison detects.
//
// Under VariantQSBR a Ref must not be used after the owning task's next
// checkpoint... strictly: the Ref itself (block pointer) stays valid, but the
// snapshot it was found through may be reclaimed; only element access through
// the Ref is permitted, which is exactly what Ref allows.
type Ref[T any] struct {
	block *memory.Block[T]
	off   int
}

// Load reads the referenced element, charging a GET if the block is remote.
func (r Ref[T]) Load(t *locale.Task) T {
	r.block.CheckLive()
	if owner := r.block.Owner; owner != t.Here().ID() {
		t.ChargeGet(owner, int(unsafe.Sizeof(r.block.Data[0])))
		if obs.On() {
			t.NoteRemoteOp()
		}
	} else if obs.On() {
		t.NoteLocalOp()
	}
	return r.block.Data[r.off]
}

// Store writes the referenced element, charging a PUT if the block is
// remote. This is the "non-zero amount of assignment through r" of Lemma 6:
// concurrent resizes recycle the block, so the store is never lost.
func (r Ref[T]) Store(t *locale.Task, v T) {
	r.block.CheckLive()
	if owner := r.block.Owner; owner != t.Here().ID() {
		t.ChargePut(owner, int(unsafe.Sizeof(v)))
		if obs.On() {
			t.NoteRemoteOp()
		}
	} else if obs.On() {
		t.NoteLocalOp()
	}
	r.block.Data[r.off] = v
}

// Owner returns the id of the locale holding the referenced element.
func (r Ref[T]) Owner() int { return r.block.Owner }

// Index resolves a global index to an element reference — Algorithm 3's
// Index. Under EBR the snapshot traversal runs inside a read-side critical
// section, entered on the task's slot stripe and exited via defer: an
// out-of-range panic or a poisoned-snapshot trip must still release the
// reader counter, or every subsequent Synchronize would wait on it forever.
// Under QSBR it is a bare load (safe until the task's next checkpoint).
// Out-of-range indices panic, like Go slice indexing.
func (a *Array[T]) Index(t *locale.Task, idx int) Ref[T] {
	inst := a.inst(t)
	if a.opts.Variant == VariantQSBR {
		s := inst.snap.Load()
		a.yield(PointIndexSnapLoaded)
		s.CheckLive()
		return a.refAt(s, idx)
	}
	g := inst.dom.EnterSlot(t.Slot())
	defer g.Exit()
	s := inst.snap.Load()
	a.yield(PointIndexSnapLoaded)
	s.CheckLive()
	return a.refAt(s, idx)
}

func (a *Array[T]) refAt(s *snapshot[T], idx int) Ref[T] {
	if idx < 0 || idx >= s.capacity(a.opts.BlockSize) {
		panic(fmt.Sprintf("core: index %d out of range [0,%d)", idx, s.capacity(a.opts.BlockSize)))
	}
	b, off := s.locate(idx, a.opts.BlockSize)
	return Ref[T]{block: b, off: off}
}

// Load reads element idx (Index + Ref.Load).
func (a *Array[T]) Load(t *locale.Task, idx int) T {
	return a.Index(t, idx).Load(t)
}

// Store writes element idx (Index + Ref.Store) — the paper's "update".
func (a *Array[T]) Store(t *locale.Task, idx int, v T) {
	a.Index(t, idx).Store(t, v)
}

// Len returns the current capacity in elements, read from the calling
// locale's snapshot (node-local; instantaneously consistent only outside a
// resize, like the paper's design).
func (a *Array[T]) Len(t *locale.Task) int {
	inst := a.inst(t)
	if a.opts.Variant == VariantQSBR {
		return inst.snap.Load().capacity(a.opts.BlockSize)
	}
	g := inst.dom.EnterSlot(t.Slot())
	defer g.Exit()
	return inst.snap.Load().capacity(a.opts.BlockSize)
}

// RegionBlocks returns the region width in blocks.
func (a *Array[T]) RegionBlocks() int { return a.opts.RegionBlocks }

// Regions returns the current region count, from the calling locale's
// directory.
func (a *Array[T]) Regions(t *locale.Task) int {
	inst := a.inst(t)
	if a.opts.Variant == VariantQSBR {
		return len(inst.snap.Load().regions)
	}
	g := inst.dom.EnterSlot(t.Slot())
	defer g.Exit()
	return len(inst.snap.Load().regions)
}
