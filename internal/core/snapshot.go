package core

import (
	"rcuarray/internal/ebr"
	"rcuarray/internal/memory"
)

// The paper's RCUArraySnapshot is a single immutable block list, swapped
// wholesale on every resize — which makes the install phase one cluster-wide
// publication whose grace period covers the entire table. PR 6 splits that
// metadata into two levels, both RCU-managed:
//
//   - regionTable: an immutable list of up to Options.RegionBlocks blocks —
//     one region's worth of the array.
//   - snapshot (the directory): an immutable list of region cells plus the
//     addressable block count. The *cells* are shared between successive
//     directory versions, so one region's table can be republished — with
//     its own short grace period — without touching the directory or any
//     other region.
//
// Readers therefore always see a consistent view: the directory bounds what
// is addressable (nBlocks), and every region table reachable from a live
// directory is either the current one or a retired-but-not-yet-reclaimed
// predecessor whose surviving prefix is identical (grows only ever extend a
// region). The ordering discipline lives in resize.go: grows flip boundary
// regions before publishing the wider directory; shrinks publish the
// narrower directory first and batch-retire the orphaned region tables after
// one grace period.

// regionTable is one region's immutable block list. Element data lives in
// the blocks, which are shared (recycled) between successive tables; only
// this slice of metadata is versioned and reclaimed per region.
type regionTable[T any] struct {
	memory.Object
	blocks []*memory.Block[T]
}

// snapshot is the directory: the immutable top level of the two-level
// metadata. It plays the role of the paper's RCUArraySnapshot for the
// reader protocol (loaded once inside the read-side critical section), but
// resolves indices through the region cells.
type snapshot[T any] struct {
	memory.Object
	// regions holds one publication cell per region; len(regions) covers
	// nBlocks (the last region may be partial). A cell is allocated when its
	// region first comes into existence and shared by every later directory
	// that still addresses the region, which is what makes a region flip
	// invisible to the directory level.
	regions []*ebr.Cell[regionTable[T]]
	// nBlocks is the addressable block count. It is what bounds reader
	// indexing: blocks beyond it — e.g. freshly flipped into a boundary
	// region by an in-flight Grow — stay unreachable until a wider
	// directory is published.
	nBlocks int
	// regionBlocks is the fixed region width in blocks (immutable per
	// array, copied into each directory so locate needs no extra plumbing).
	regionBlocks int
}

// capacity returns the number of elements addressable through the directory.
func (s *snapshot[T]) capacity(blockSize int) int {
	return s.nBlocks * blockSize
}

// blockAt resolves addressable block index bi through its region. The
// region-table poison check makes a stale traversal — a reader still holding
// a directory whose region was since retired out from under it, which the
// grace-period discipline must prevent — fail loudly rather than return a
// dangling block.
func (s *snapshot[T]) blockAt(bi int) *memory.Block[T] {
	rt := s.regions[bi/s.regionBlocks].Load()
	rt.CheckLive()
	return rt.blocks[bi%s.regionBlocks]
}

// locate maps a global index to (block, offset) — Algorithm 3's Helper,
// now via the region level.
func (s *snapshot[T]) locate(idx, blockSize int) (*memory.Block[T], int) {
	return s.blockAt(idx / blockSize), idx % blockSize
}

// blockList materializes the addressable block sequence (diagnostics, bulk
// capture, and the prefix-property tests).
func (s *snapshot[T]) blockList() []*memory.Block[T] {
	out := make([]*memory.Block[T], s.nBlocks)
	for bi := 0; bi < s.nBlocks; bi++ {
		out[bi] = s.blockAt(bi)
	}
	return out
}
