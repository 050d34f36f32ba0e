package core

import (
	"sync/atomic"

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
	snap atomic.Pointer[snapshot[T]]
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
	inst.snap.Store(first)
	return inst
}

// newRegion wraps blocks in a fresh region table (taking ownership of the
// slice) and notes its lifecycle.
func (inst *instance[T]) newRegion(blocks []*memory.Block[T]) *regionTable[T] {
	inst.regionStats.NoteAlloc(false)
	return &regionTable[T]{blocks: blocks}
}

// retireRegion poisons a reclaimed region table so any straggling reader
// trips the use-after-free detector, and releases its metadata.
func (inst *instance[T]) retireRegion(rt *regionTable[T]) {
	rt.Retire()
	rt.blocks = nil // metadata poison: stale indexing fails loudly
	inst.regionStats.NoteFree()
}

// retireSnapshot poisons a reclaimed directory so any straggling reader
// trips the use-after-free detector, and releases its metadata.
func (inst *instance[T]) retireSnapshot(s *snapshot[T]) {
	s.Retire()
	s.regions = nil // metadata poison: stale indexing fails loudly
	inst.snapStats.NoteFree()
}
