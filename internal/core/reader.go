package core

import (
	"fmt"

	"rcuarray/internal/ebr"
	"rcuarray/internal/locale"
	"rcuarray/internal/memory"
)

// Reader is a pinned read session: the amortized read path. The paper's
// Algorithm 1 charges every Index two atomic RMWs on the locale's reader
// counters plus a full divide-and-traverse of the snapshot; a Reader enters
// the read-side critical section once and serves many Index/Load/Store
// calls from it, and additionally caches the last (block, blockIndex)
// resolution so sequential and strided index streams skip the traversal on
// hits.
//
// Three rules keep this safe:
//
//   - Pin budget. Under EBR a pinned reader holds its epoch open, which
//     would starve writers in Synchronize if unbounded. Every operation
//     ticks a budget (Options.PinBudget); when it is spent the session
//     exits and re-enters the critical section and re-resolves its
//     snapshot, giving any waiting writer its grace period. A session that
//     stops issuing operations must Close — an idle open session blocks
//     writers just like a paused reader in plain Index would, only longer.
//   - Cache invalidation. The block cache is valid only against the
//     session's resolved snapshot, so it is dropped on every repin (and on
//     Repin/Close). Within one pin window the snapshot is immutable, so a
//     hit needs no validation beyond the index arithmetic; the returned
//     Refs carry the same poison-checked use-after-shrink detection as
//     plain Index.
//   - Snapshot staleness. The session observes the snapshot resolved at
//     its last (re)pin: a concurrent Grow becomes visible only after the
//     next repin, so Len and in-range checks reflect that snapshot. This
//     is the same relaxation the paper already grants per-operation reads,
//     widened to a budget window.
//
// Under QSBR the session is unsynchronized like every QSBR read: the cached
// snapshot is protected until the owning task's next checkpoint, so — like
// a Ref — a session must not span a Checkpoint.
//
// A Reader is a per-task object: not safe for concurrent use, must not be
// copied after first use.
type Reader[T any] struct {
	a    *Array[T]
	t    *locale.Task
	snap *snapshot[T]
	pin  ebr.Pinned // EBR only
	ebr  bool
	open bool
	// Location cache: the last resolved block, keyed by block index.
	blockIdx int
	block    *memory.Block[T]
	hits     uint64
	misses   uint64
}

// Reader opens a pinned read session for t. Close it when done; the
// recommended shape is
//
//	rd := a.Reader(t)
//	defer rd.Close()
//	for i := lo; i < hi; i++ { sum += rd.Load(i) }
func (a *Array[T]) Reader(t *locale.Task) Reader[T] {
	r := Reader[T]{a: a, t: t, ebr: a.opts.Variant != VariantQSBR, open: true, blockIdx: -1}
	if r.ebr {
		inst := a.inst(t)
		r.pin = inst.dom.Pin(t.Slot(), a.opts.PinBudget)
	}
	r.resolve()
	return r
}

// resolve (re)loads the session snapshot and drops the location cache.
func (r *Reader[T]) resolve() {
	s := r.a.inst(r.t).snap.Load()
	r.a.yield(PointIndexSnapLoaded)
	s.CheckLive()
	r.snap = s
	r.blockIdx = -1
	r.block = nil
}

// Index resolves idx to an element reference within the session. Panics if
// idx is out of range of the session's snapshot.
func (r *Reader[T]) Index(idx int) Ref[T] {
	if !r.open {
		panic("core: Reader used after Close")
	}
	if r.ebr && r.pin.Tick() {
		// Budget exhausted: the pin cycled, the previous snapshot may
		// be retired by the time we return. Re-resolve.
		r.resolve()
	}
	bs := r.a.opts.BlockSize
	if idx >= 0 && idx/bs == r.blockIdx {
		r.hits++
		return Ref[T]{block: r.block, off: idx % bs}
	}
	r.misses++
	s := r.snap
	if idx < 0 || idx >= s.capacity(bs) {
		panic(fmt.Sprintf("core: index %d out of range [0,%d)", idx, s.capacity(bs)))
	}
	b, off := s.locate(idx, bs)
	r.blockIdx = idx / bs
	r.block = b
	return Ref[T]{block: b, off: off}
}

// Load reads element idx through the session.
func (r *Reader[T]) Load(idx int) T {
	ref := r.Index(idx)
	return ref.Load(r.t)
}

// Store writes element idx through the session (updates share the read
// path, Section III-C).
func (r *Reader[T]) Store(idx int, v T) {
	ref := r.Index(idx)
	ref.Store(r.t, v)
}

// Len returns the capacity of the session's snapshot — the capacity as of
// the last (re)pin, not necessarily the instantaneous one.
func (r *Reader[T]) Len() int { return r.snap.capacity(r.a.opts.BlockSize) }

// Repin ends the current pin window early and re-resolves the snapshot,
// making concurrent resizes visible to the session.
func (r *Reader[T]) Repin() {
	if !r.open {
		panic("core: Reader used after Close")
	}
	if r.ebr {
		r.pin.Repin()
	}
	r.resolve()
}

// Close ends the session, releasing the read-side critical section under
// EBR. Idempotent, so it is safe to defer alongside an early explicit
// Close.
func (r *Reader[T]) Close() {
	if !r.open {
		return
	}
	r.open = false
	r.snap = nil
	r.block = nil
	if r.ebr {
		r.pin.Unpin()
	}
}

// CacheStats returns the session's location-cache hit and miss counts (the
// ablation benchmarks report the hit rate per access pattern).
func (r *Reader[T]) CacheStats() (hits, misses uint64) { return r.hits, r.misses }

// Repins returns how many budget-exhaustion repins the session performed.
// Always zero under QSBR.
func (r *Reader[T]) Repins() uint64 {
	if !r.ebr {
		return 0
	}
	return r.pin.Repins()
}
