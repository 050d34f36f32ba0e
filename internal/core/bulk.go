package core

import (
	"fmt"

	"rcuarray/internal/locale"
	"rcuarray/internal/memory"
)

// Bulk operations. Chapel's arrays host "a wide variety of operations"
// beyond single-element indexing (Section I); these are the bulk forms a
// downstream user of a distributed array actually needs, built on the same
// snapshot discipline: the metadata traversal happens inside one read-side
// critical section, after which the captured block pointers are stable
// (blocks never move under Grow), and element transfer proceeds per block
// with one bulk GET/PUT charge per remote run.

// blocksFor captures the blocks spanning [lo, lo+n) from the current
// snapshot, inside a read-side critical section when the variant needs one.
// The exit is deferred so an out-of-range panic cannot leak the reader
// counter. Zero-length ranges are valid for any 0 ≤ lo ≤ capacity — in
// particular lo == capacity, the natural end position of a CopyOut of an
// empty tail or a Fill(t, n, n, v) — and capture nothing.
func (a *Array[T]) blocksFor(t *locale.Task, lo, n int) []*memory.Block[T] {
	inst := a.inst(t)
	capture := func() []*memory.Block[T] {
		s := inst.snap.Load()
		s.CheckLive()
		if lo < 0 || n < 0 || lo+n > s.capacity(a.opts.BlockSize) {
			panic(fmt.Sprintf("core: bulk range [%d,%d) out of range [0,%d)",
				lo, lo+n, s.capacity(a.opts.BlockSize)))
		}
		if n == 0 {
			return nil
		}
		first := lo / a.opts.BlockSize
		last := (lo + n - 1) / a.opts.BlockSize
		// Materialize through the region level while still inside the
		// critical section: region tables reachable from a live directory
		// are live here, so the captured block pointers are stable (blocks
		// never move under Grow).
		out := make([]*memory.Block[T], 0, last-first+1)
		for bi := first; bi <= last; bi++ {
			out = append(out, s.blockAt(bi))
		}
		return out
	}
	if a.opts.Variant == VariantQSBR {
		return capture()
	}
	g := inst.dom.EnterSlot(t.Slot())
	defer g.Exit()
	return capture()
}

// CopyOut copies len(dst) elements starting at global index lo into dst.
// It runs concurrently with updates and resizes; each element is read
// exactly once, with per-block torn-read semantics matching single-element
// Loads (elements are plain memory).
func (a *Array[T]) CopyOut(t *locale.Task, lo int, dst []T) {
	blocks := a.blocksFor(t, lo, len(dst))
	a.eachRun(t, blocks, lo, len(dst), func(b *memory.Block[T], blockOff, dstOff, run int, remote bool) {
		if remote {
			t.ChargeGet(b.Owner, run*a.elemSize)
		}
		copy(dst[dstOff:dstOff+run], b.Data[blockOff:blockOff+run])
	})
}

// CopyIn stores src into the array starting at global index lo.
func (a *Array[T]) CopyIn(t *locale.Task, lo int, src []T) {
	blocks := a.blocksFor(t, lo, len(src))
	a.eachRun(t, blocks, lo, len(src), func(b *memory.Block[T], blockOff, srcOff, run int, remote bool) {
		if remote {
			t.ChargePut(b.Owner, run*a.elemSize)
		}
		copy(b.Data[blockOff:blockOff+run], src[srcOff:srcOff+run])
	})
}

// Fill stores v into every element of [lo, hi).
func (a *Array[T]) Fill(t *locale.Task, lo, hi int, v T) {
	if hi < lo {
		panic(fmt.Sprintf("core: Fill range [%d,%d)", lo, hi))
	}
	n := hi - lo
	blocks := a.blocksFor(t, lo, n)
	a.eachRun(t, blocks, lo, n, func(b *memory.Block[T], blockOff, _, run int, remote bool) {
		if remote {
			t.ChargePut(b.Owner, run*a.elemSize)
		}
		data := b.Data[blockOff : blockOff+run]
		for i := range data {
			data[i] = v
		}
	})
}

// eachRun walks the contiguous per-block runs of [lo, lo+n) over the
// captured blocks, invoking fn with the block, the offset within it, the
// offset within the caller's buffer, the run length, and whether the block
// is remote to the calling locale.
func (a *Array[T]) eachRun(t *locale.Task, blocks []*memory.Block[T], lo, n int,
	fn func(b *memory.Block[T], blockOff, bufOff, run int, remote bool)) {
	if n == 0 {
		return
	}
	here := t.Here().ID()
	bs := a.opts.BlockSize
	bufOff := 0
	idx := lo
	for _, b := range blocks {
		b.CheckLive()
		blockOff := idx % bs
		run := bs - blockOff
		if run > n-bufOff {
			run = n - bufOff
		}
		fn(b, blockOff, bufOff, run, b.Owner != here)
		bufOff += run
		idx += run
		if bufOff == n {
			return
		}
	}
}

// LocalBlocks visits, on the calling locale, every block of the current
// snapshot owned by that locale: fn receives the block's starting global
// index and its element slice. This is the building block for Chapel-style
// `forall` iteration — pair it with Coforall to process the whole array
// with fully local element access:
//
//	task.Coforall(func(sub *locale.Task) {
//		arr.LocalBlocks(sub, func(start int, data []T) { ... })
//	})
//
// The visit runs against one snapshot capture; blocks appended by a
// concurrent Grow may or may not be visited.
func (a *Array[T]) LocalBlocks(t *locale.Task, fn func(start int, data []T)) {
	inst := a.inst(t)
	here := t.Here().ID()
	visit := func() {
		s := inst.snap.Load()
		s.CheckLive()
		for bi := 0; bi < s.nBlocks; bi++ {
			if b := s.blockAt(bi); b.Owner == here {
				fn(bi*a.opts.BlockSize, b.Data)
			}
		}
	}
	if a.opts.Variant == VariantQSBR {
		visit()
		return
	}
	// Under EBR the whole visit stays inside the read-side section:
	// unlike single-element refs, fn receives raw slices whose blocks a
	// concurrent Shrink could free. The exit is deferred so a panicking
	// fn (or a tripped poison check) cannot leak the reader counter.
	g := inst.dom.EnterSlot(t.Slot())
	defer g.Exit()
	visit()
}
