package core

import (
	"rcuarray/internal/ebr"
	"rcuarray/internal/locale"
	"rcuarray/internal/memory"
)

// instance is the privatized per-locale copy of the array's metadata — the
// paper's RCUArrayMetaData (Listing 1), split into the two-level directory +
// region tables of snapshot.go. All fields are node-local; resizes mutate
// them on every locale under the cluster-wide WriteLock, and
// readers/updaters touch only their own locale's instance plus the blocks
// they index into.
type instance[T any] struct {
	// dom carries GlobalEpoch and EpochReaders for the EBR variant. It is
	// private to the locale, striped over the locale's task slots unless
	// Options.FlatEBR pins the paper's exact two-counter layout.
	dom *ebr.Domain
	// snap is the GlobalSnapshot pointer — now the region directory.
	snap ebr.Cell[snapshot[T]]
	// nextLocaleID is the round-robin cursor for block placement. It is
	// only read and written while the WriteLock is held.
	nextLocaleID int
	// pool allocates this locale's blocks.
	pool *memory.Pool[T]
	// snapStats tracks directory lifecycle on this locale; the Lemma 1
	// test asserts LiveMax <= 2.
	snapStats memory.Stats
	// regionStats tracks region-table lifecycle on this locale (the
	// region tests assert steady-state live counts and leak-freedom).
	regionStats memory.Stats
}

func newInstance[T any](loc *locale.Locale, opts Options) *instance[T] {
	stripes := loc.Cluster().WorkersPerLocale()
	if opts.FlatEBR {
		stripes = 1
	}
	dom := ebr.NewStriped(stripes)
	// Grace-period metrics land in the owning cluster's registry, next to
	// the resize-phase histograms, not in the process-global default.
	dom.Observe(loc.Cluster().Obs())
	inst := &instance[T]{
		dom:  dom,
		pool: memory.NewPool[T](loc.ID(), opts.BlockSize, loc.MemStats()),
	}
	first := &snapshot[T]{regionBlocks: opts.RegionBlocks}
	inst.snapStats.NoteAlloc(false)
	inst.snap.Swap(dom, first) // replaces nil: nothing to retire
	return inst
}

// newRegion wraps blocks in a fresh region table (taking ownership of the
// slice) and notes its lifecycle.
func (inst *instance[T]) newRegion(blocks []*memory.Block[T]) *regionTable[T] {
	inst.regionStats.NoteAlloc(false)
	return &regionTable[T]{blocks: blocks}
}

// newCell returns a fresh region cell publishing a table over a copy of
// blocks.
func (inst *instance[T]) newCell(blocks []*memory.Block[T]) *ebr.Cell[regionTable[T]] {
	c := new(ebr.Cell[regionTable[T]])
	c.Swap(inst.dom, inst.newRegion(append([]*memory.Block[T](nil), blocks...))) // replaces nil
	return c
}

// reclaim hands the value u unpublished to free once no reader can hold it:
// under EBR through After, which panics unless publishAll's Synchronize has
// run since the swap; under QSBR through Defer, from a callback sub's
// locale runs after quiescence.
func reclaim[V any](v Variant, sub *locale.Task, u ebr.Unpublished[V], free func(*V)) {
	if v == VariantQSBR {
		u.Defer(sub.QSBR().Defer, free)
		return
	}
	free(u.After())
}

// retire reclaims what one publication unpublished: the directory dir, the
// region tables of its cells from index orphans on (no newer directory
// reaches those cells, so their tables left with dir), and the boundary
// table a grow flipped, if any. Each object is poisoned, so a straggling
// reader trips the use-after-free detector, and its metadata released.
func (inst *instance[T]) retire(v Variant, sub *locale.Task, dir ebr.Unpublished[snapshot[T]], orphans int, flip *ebr.Unpublished[regionTable[T]]) {
	freeRegion := func(rt *regionTable[T]) {
		rt.Retire()
		rt.blocks = nil // metadata poison: stale indexing fails loudly
		inst.regionStats.NoteFree()
	}
	if flip != nil {
		reclaim(v, sub, *flip, freeRegion)
	}
	reclaim(v, sub, dir, func(s *snapshot[T]) {
		for _, c := range s.regions[orphans:] {
			freeRegion(c.Load())
		}
		s.Retire()
		s.regions = nil // metadata poison: stale indexing fails loudly
		inst.snapStats.NoteFree()
	})
}
