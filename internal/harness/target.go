// Package harness runs the paper's evaluation: it builds any of the five
// arrays, drives them with workload streams across locale sweeps, and
// formats the resulting series the way the paper's figures report them
// (throughput in operations per second versus locale count or checkpoint
// frequency).
package harness

import (
	"fmt"

	"rcuarray/internal/baseline"
	"rcuarray/internal/core"
	"rcuarray/internal/locale"
)

// Kind selects one of the evaluated arrays.
type Kind int

const (
	// KindEBR is RCUArray under epoch-based reclamation ("EBRArray").
	KindEBR Kind = iota
	// KindQSBR is RCUArray under quiescent-state reclamation ("QSBRArray").
	KindQSBR
	// KindChapel is the unsynchronized block-distributed baseline
	// ("ChapelArray" / UnsafeArray).
	KindChapel
	// KindSync is the cluster-wide-lock baseline ("SyncArray").
	KindSync
	// KindRW is the reader-writer-lock ablation ("RWLockArray").
	KindRW
	// KindEBRFlat is RCUArray under EBR with the paper's exact flat
	// two-counter layout (no reader-counter striping) — the baseline of
	// the striping ablation.
	KindEBRFlat
)

// String returns the paper's label for the kind.
func (k Kind) String() string {
	switch k {
	case KindEBR:
		return "EBRArray"
	case KindQSBR:
		return "QSBRArray"
	case KindChapel:
		return "ChapelArray"
	case KindSync:
		return "SyncArray"
	case KindRW:
		return "RWLockArray"
	case KindEBRFlat:
		return "EBRArray-flat"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves a label (as printed by String) back to a Kind.
func ParseKind(s string) (Kind, error) {
	for _, k := range []Kind{KindEBR, KindQSBR, KindChapel, KindSync, KindRW, KindEBRFlat} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("harness: unknown array kind %q", s)
}

// IsQSBR reports whether the kind needs checkpoints for reclamation.
func (k Kind) IsQSBR() bool { return k == KindQSBR }

// Target is the operation set common to all five arrays, over int64
// elements (the element type of every measured workload).
type Target interface {
	Name() string
	Len(t *locale.Task) int
	Load(t *locale.Task, idx int) int64
	Store(t *locale.Task, idx int, v int64)
	Grow(t *locale.Task, additional int)
}

type coreTarget struct {
	a    *core.Array[int64]
	name string
}

func (c coreTarget) Name() string                           { return c.name }
func (c coreTarget) Len(t *locale.Task) int                 { return c.a.Len(t) }
func (c coreTarget) Load(t *locale.Task, idx int) int64     { return c.a.Load(t, idx) }
func (c coreTarget) Store(t *locale.Task, idx int, v int64) { c.a.Store(t, idx, v) }
func (c coreTarget) Grow(t *locale.Task, additional int)    { c.a.Grow(t, additional) }

// ReadSession is an open amortized read session against a target (see
// core.Reader). Targets without session support serve it with per-op loads.
type ReadSession interface {
	Load(idx int) int64
	Close()
	// CacheStats returns location-cache hits and misses (both zero for
	// targets without a cache).
	CacheStats() (hits, misses uint64)
}

type sessionOpener interface {
	OpenReader(t *locale.Task) ReadSession
}

// OpenReadSession opens a pinned read session when the target supports one,
// and a plain per-op fallback otherwise, so workloads can be written
// uniformly against any Kind.
func OpenReadSession(tgt Target, t *locale.Task) ReadSession {
	if so, ok := tgt.(sessionOpener); ok {
		return so.OpenReader(t)
	}
	return plainSession{tgt: tgt, t: t}
}

type plainSession struct {
	tgt Target
	t   *locale.Task
}

func (p plainSession) Load(idx int) int64           { return p.tgt.Load(p.t, idx) }
func (p plainSession) Close()                       {}
func (p plainSession) CacheStats() (uint64, uint64) { return 0, 0 }

type coreSession struct{ rd core.Reader[int64] }

func (c coreTarget) OpenReader(t *locale.Task) ReadSession {
	return &coreSession{rd: c.a.Reader(t)}
}

func (c *coreSession) Load(idx int) int64           { return c.rd.Load(idx) }
func (c *coreSession) Close()                       { c.rd.Close() }
func (c *coreSession) CacheStats() (uint64, uint64) { return c.rd.CacheStats() }

// BuildTarget constructs the array of the given kind with blockSize and
// initial capacity (both in elements).
func BuildTarget(task *locale.Task, k Kind, blockSize, initial int) Target {
	switch k {
	case KindEBR, KindQSBR, KindEBRFlat:
		v := core.VariantEBR
		if k == KindQSBR {
			v = core.VariantQSBR
		}
		return coreTarget{name: k.String(), a: core.New[int64](task, core.Options{
			BlockSize:       blockSize,
			Variant:         v,
			InitialCapacity: initial,
			FlatEBR:         k == KindEBRFlat,
		})}
	case KindChapel:
		return baseline.NewUnsafe[int64](task, initial)
	case KindSync:
		return baseline.NewSync[int64](task, initial)
	case KindRW:
		return baseline.NewRWLock[int64](task, initial)
	default:
		panic(fmt.Sprintf("harness: unknown kind %d", int(k)))
	}
}
