// Package rcuarray is a Go reproduction of "RCUArray: An RCU-like
// Parallel-Safe Distributed Resizable Array" (Louis Jenkins, IPDPSW 2018):
// a block-distributed resizable array whose reads and updates run
// concurrently with resizes via Read-Copy-Update, over a simulated PGAS
// cluster.
//
// # Quick start
//
//	c := rcuarray.NewCluster(rcuarray.ClusterConfig{Locales: 4})
//	defer c.Shutdown()
//	c.Run(func(t *rcuarray.Task) {
//		a := rcuarray.New[int64](t, rcuarray.Options{
//			BlockSize:       1024,
//			Reclaim:         rcuarray.QSBR,
//			InitialCapacity: 4096,
//		})
//		a.Store(t, 17, 42)
//		a.Grow(t, 4096) // safe while other tasks read and update
//		_ = a.Load(t, 17)
//		t.Checkpoint() // QSBR quiescent point
//	})
//
// Two reclamation strategies are available, mirroring the paper:
//
//   - EBR (epoch-based): reads pay two atomic operations on collective
//     per-locale counters but need no cooperation from tasks.
//   - QSBR (quiescent-state-based): reads are free of synchronization, but
//     every task must call Task.Checkpoint between holding references, or
//     reclamation stalls. Worker threads park automatically when idle.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduced evaluation.
package rcuarray

import (
	"time"

	"rcuarray/internal/comm"
	"rcuarray/internal/core"
	"rcuarray/internal/locale"
)

// Task is an execution context bound to a locale — the explicit Go analogue
// of Chapel's implicit `here`/task pair. Tasks provide On/Coforall task
// parallelism and the QSBR Checkpoint operation.
type Task = locale.Task

// Locale is one simulated node of the cluster.
type Locale = locale.Locale

// ClusterConfig sizes a simulated cluster.
type ClusterConfig struct {
	// Locales is the number of simulated nodes. Default 1.
	Locales int
	// TasksPerLocale is each node's worker-pool size. Default 4.
	TasksPerLocale int
	// RemoteLatency, if nonzero, charges each remote PUT/GET/active
	// message this much one-way latency, modelling the interconnect.
	RemoteLatency time.Duration
}

// Cluster is a simulated multi-locale system hosting distributed arrays.
type Cluster struct {
	inner *locale.Cluster
}

// NewCluster starts a cluster. Call Shutdown when done.
func NewCluster(cfg ClusterConfig) *Cluster {
	return &Cluster{inner: locale.NewCluster(locale.Config{
		Locales:          cfg.Locales,
		WorkersPerLocale: cfg.TasksPerLocale,
		Comm:             comm.Config{RemoteLatency: cfg.RemoteLatency},
	})}
}

// Run executes fn as a driver task homed on locale 0 and blocks until it
// returns.
func (c *Cluster) Run(fn func(*Task)) { c.inner.Run(fn) }

// NumLocales returns the cluster size.
func (c *Cluster) NumLocales() int { return c.inner.NumLocales() }

// Shutdown stops the cluster's worker pools. Idempotent.
func (c *Cluster) Shutdown() { c.inner.Shutdown() }

// Internal returns the underlying cluster for advanced use (benchmark
// harnesses, communication statistics).
func (c *Cluster) Internal() *locale.Cluster { return c.inner }

// Reclaim selects the memory-reclamation strategy for an Array.
type Reclaim int

const (
	// EBR selects TLS-free epoch-based reclamation (paper Section III-A).
	EBR Reclaim = iota
	// QSBR selects runtime quiescent-state-based reclamation (Section
	// III-B); tasks must call Checkpoint periodically.
	QSBR
)

// String names the strategy.
func (r Reclaim) String() string {
	if r == QSBR {
		return "QSBR"
	}
	return "EBR"
}

// Options configures an Array.
type Options struct {
	// BlockSize is the element capacity of each distributed block.
	// Default 1024.
	BlockSize int
	// Reclaim picks EBR (default) or QSBR.
	Reclaim Reclaim
	// InitialCapacity, if positive, grows the array at construction.
	InitialCapacity int
}

// Array is a parallel-safe distributed resizable array of T. All operations
// are safe to invoke from any number of tasks concurrently, including Grow
// and Shrink: the structure never corrupts and readers never observe
// reclaimed memory.
//
// Elements themselves are plain memory, exactly as in the paper's Chapel
// implementation: concurrent Store/Store or Store/Load on the *same index*
// are unsynchronized (last-writer-wins, and a data race by Go's memory
// model). Partition indices between tasks, or synchronize same-element
// access externally.
type Array[T any] struct {
	inner *core.Array[T]
}

// New creates an Array on the task's cluster.
func New[T any](t *Task, opts Options) *Array[T] {
	v := core.VariantEBR
	if opts.Reclaim == QSBR {
		v = core.VariantQSBR
	}
	return &Array[T]{inner: core.New[T](t, core.Options{
		BlockSize:       opts.BlockSize,
		Variant:         v,
		InitialCapacity: opts.InitialCapacity,
	})}
}

// Len returns the current capacity in elements, as seen from the calling
// locale.
func (a *Array[T]) Len(t *Task) int { return a.inner.Len(t) }

// BlockSize returns the block capacity in elements.
func (a *Array[T]) BlockSize() int { return a.inner.BlockSize() }

// Load reads element idx. Panics if idx is out of range.
func (a *Array[T]) Load(t *Task, idx int) T { return a.inner.Load(t, idx) }

// Store writes element idx. Panics if idx is out of range.
func (a *Array[T]) Store(t *Task, idx int, v T) { a.inner.Store(t, idx, v) }

// Index returns a reference to element idx. References remain valid across
// Grow (blocks are recycled, not moved); a Shrink that removes the element
// invalidates the reference.
func (a *Array[T]) Index(t *Task, idx int) Ref[T] {
	return Ref[T]{inner: a.inner.Index(t, idx)}
}

// CopyOut copies len(dst) elements starting at global index lo into dst,
// charging one bulk GET per remote block run. Safe concurrently with
// resizes.
func (a *Array[T]) CopyOut(t *Task, lo int, dst []T) { a.inner.CopyOut(t, lo, dst) }

// CopyIn stores src starting at global index lo, charging one bulk PUT per
// remote block run. Safe concurrently with resizes.
func (a *Array[T]) CopyIn(t *Task, lo int, src []T) { a.inner.CopyIn(t, lo, src) }

// Fill stores v into every element of [lo, hi).
func (a *Array[T]) Fill(t *Task, lo, hi int, v T) { a.inner.Fill(t, lo, hi, v) }

// LocalBlocks visits every block owned by the calling locale with its
// starting global index and raw element slice — the building block for
// Chapel-style forall iteration with fully local access (pair it with
// Task.Coforall).
func (a *Array[T]) LocalBlocks(t *Task, fn func(start int, data []T)) {
	a.inner.LocalBlocks(t, fn)
}

// Grow expands the array by at least additional elements, rounded up to
// whole blocks, concurrently with readers and updaters.
func (a *Array[T]) Grow(t *Task, additional int) { a.inner.Grow(t, additional) }

// Shrink removes at least removed elements from the array's tail, rounded
// up to whole blocks, concurrently with readers and updaters of the
// surviving region.
func (a *Array[T]) Shrink(t *Task, removed int) { a.inner.Shrink(t, removed) }

// Destroy releases all storage. The array must not be used afterwards.
func (a *Array[T]) Destroy(t *Task) { a.inner.Destroy(t) }

// Reader opens an amortized read session: one read-side critical-section
// entry serving many operations, with a location cache that makes
// sequential and strided index streams skip the block traversal. Close the
// session when done:
//
//	rd := a.Reader(t)
//	defer rd.Close()
//	for i := 0; i < rd.Len(); i++ { sum += rd.Load(i) }
//
// Under EBR the session transparently re-pins on its first operation after a
// concurrent resize advances the epoch, and at least every 1024 operations;
// an idle open session delays concurrent resizes, so sessions should be
// closed promptly. Under QSBR the session must not span a Checkpoint (like a
// Ref). A Reader is per-task:
// not safe for concurrent use.
func (a *Array[T]) Reader(t *Task) Reader[T] {
	return Reader[T]{inner: a.inner.Reader(t)}
}

// Reader is an open read session on an Array. See Array.Reader.
type Reader[T any] struct {
	inner core.Reader[T]
}

// Load reads element idx through the session.
func (r *Reader[T]) Load(idx int) T { return r.inner.Load(idx) }

// Store writes element idx through the session.
func (r *Reader[T]) Store(idx int, v T) { r.inner.Store(idx, v) }

// Index returns a reference to element idx through the session.
func (r *Reader[T]) Index(idx int) Ref[T] { return Ref[T]{inner: r.inner.Index(idx)} }

// Len returns the capacity of the session's pinned snapshot (resizes become
// visible at the next repin).
func (r *Reader[T]) Len() int { return r.inner.Len() }

// Repin re-enters the critical section early, making concurrent resizes
// visible to the session.
func (r *Reader[T]) Repin() { r.inner.Repin() }

// Close ends the session. Idempotent.
func (r *Reader[T]) Close() { r.inner.Close() }

// CacheStats returns the session's location-cache hits and misses.
func (r *Reader[T]) CacheStats() (hits, misses uint64) { return r.inner.CacheStats() }

// Ref is a stable reference to one element, the paper's return-by-reference
// update mechanism: assignments through a Ref taken before a concurrent
// Grow remain visible afterwards (block recycling, paper Lemma 6).
type Ref[T any] struct {
	inner core.Ref[T]
}

// Load reads the referenced element.
func (r Ref[T]) Load(t *Task) T { return r.inner.Load(t) }

// Store writes the referenced element.
func (r Ref[T]) Store(t *Task, v T) { r.inner.Store(t, v) }

// Owner returns the id of the locale holding the element.
func (r Ref[T]) Owner() int { return r.inner.Owner() }
