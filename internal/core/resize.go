package core

import (
	"fmt"

	"rcuarray/internal/locale"
	"rcuarray/internal/memory"
)

// publishAll runs one region-level publication step on every locale — apply
// performs the locale's publication and returns the retirement of whatever
// it unpublished — then separates publication from retirement with the
// variant's grace discipline:
//
//   - EBR: each locale synchronizes its own domain inside the coforall and
//     retires immediately after (the paper's per-locale RCU_Write tail).
//   - QSBR: no synchronize; each locale defers its retirement to the
//     runtime's quiescence detection.
//
// On return (for EBR) no reader can still observe anything apply
// unpublished, so grows may proceed to the next region and shrinks may free
// blocks.
func (a *Array[T]) publishAll(t *locale.Task, apply func(sub *locale.Task, inst *instance[T]) func()) {
	if a.opts.Variant == VariantQSBR {
		t.Coforall(func(sub *locale.Task) {
			if retire := apply(sub, a.inst(sub)); retire != nil {
				sub.QSBR().Defer(retire)
			}
		})
		return
	}
	t.Coforall(func(sub *locale.Task) {
		inst := a.inst(sub)
		retire := apply(sub, inst)
		inst.dom.Synchronize()
		if retire != nil {
			retire()
		}
	})
}

// Grow expands the array by at least additional elements (rounded up to a
// whole number of blocks, as in the paper, which covers only expansion by
// multiples of BlockSize). It implements Algorithm 3's Resize, split into
// per-region publications:
//
//  1. acquire the cluster-wide WriteLock,
//  2. allocate the new blocks round-robin across locales ("on Locales[locId]
//     do newBlocks.push_back(new Block())"),
//  3. if the current block count does not land on a region boundary, flip
//     the boundary region: republish just that region's table, extended by
//     the first new blocks, through its shared cell, leaving the directory
//     (and so the addressable capacity) untouched,
//  4. publish the wider directory on every locale: new region cells for the
//     remaining blocks, nBlocks raised to the new capacity; ONE grace
//     period then retires the old directories and the flipped boundary
//     table together,
//  5. release the WriteLock.
//
// Readers always see a consistent view: until step 4 publishes, the flipped
// boundary table is a strict prefix-extension of its predecessor and the
// extra blocks sit beyond every live directory's nBlocks bound.
//
// Grow runs concurrently with any number of reads and updates.
func (a *Array[T]) Grow(t *locale.Task, additional int) {
	if additional <= 0 {
		panic(fmt.Sprintf("core: Grow by %d", additional))
	}
	bs := a.opts.BlockSize
	rb := a.opts.RegionBlocks
	nBlocks := (additional + bs - 1) / bs

	// Resize is the writer slow path: when observability is on it takes
	// timestamps per phase and emits spans onto the initiator's trace track
	// (plus one install span per locale track inside the coforall).
	var rs resizeSpans
	rs.start(a.o, t, a.o.nGrow)
	if rs.on {
		a.o.grows.Inc()
	}

	rs.begin(a.o.nLock)
	a.writeLock.Acquire(t)
	rs.end(a.o.nLock, a.o.lockNs)
	defer a.writeLock.Release(t)

	// Round-robin allocation, starting from the replicated cursor
	// (Algorithm 3 lines 11–16). Allocation happens on the owning locale.
	rs.begin(a.o.nAlloc)
	locID := a.inst(t).nextLocaleID
	newBlocks := make([]*memory.Block[T], 0, nBlocks)
	for i := 0; i < nBlocks; i++ {
		t.On(locID, func(sub *locale.Task) {
			newBlocks = append(newBlocks, a.inst(sub).pool.Alloc())
		})
		locID = (locID + 1) % a.cluster.NumLocales()
	}
	rs.end(a.o.nAlloc, a.o.allocNs)

	oldN := a.inst(t).snap.Load().nBlocks
	newN := oldN + nBlocks

	// Step 3: boundary-region flip — publication only. The extended table
	// goes live on every locale immediately (incremental visibility: a
	// reader entering now already sees the recycled prefix through the new
	// table), but the old table's *retirement* is batched into step 4's
	// grace period. A grow therefore costs exactly one grace period per
	// locale, same as the flat layout — the Reader contract ("Repin hands
	// the writer its grace period") depends on that — while the flipped
	// region is still a separate publication step the lincheck schedules
	// can park between.
	fill := 0
	var oldBoundary []*regionTable[T]
	if oldN%rb != 0 {
		boundary := oldN / rb
		fill = rb - oldN%rb
		if fill > nBlocks {
			fill = nBlocks
		}
		oldBoundary = make([]*regionTable[T], a.cluster.NumLocales())
		rs.begin(a.o.nRegionFlip)
		t.Coforall(func(sub *locale.Task) {
			inst := a.inst(sub)
			old := inst.snap.Load().regions[boundary].load()
			ext := make([]*memory.Block[T], 0, len(old.blocks)+fill)
			ext = append(append(ext, old.blocks...), newBlocks[:fill]...)
			inst.snap.Load().regions[boundary].p.Store(inst.newRegion(ext))
			oldBoundary[sub.Here().ID()] = old
		})
		rs.end(a.o.nRegionFlip, a.o.regionFlipNs)
		if rs.on {
			a.o.regionFlips.Inc()
			rs.ring.Instant(a.o.nRegionIdx, int64(boundary))
		}
		a.regionEvent(RegionEvent{Op: "grow", Kind: "flip", Region: boundary, NBlocks: oldN})
		a.yield(PointInstallRegionFlipped)
	}

	// Step 4: publish the wider directory (new cells for remaining blocks);
	// the grace period then retires the old directory and, if step 3
	// flipped, the old boundary table — any reader that could hold either
	// entered before this publication and is covered by the one grace.
	rest := newBlocks[fill:]
	rs.begin(a.o.nInstall)
	a.publishAll(t, func(sub *locale.Task, inst *instance[T]) func() {
		ls := rs.localeSpan(a.o, sub, a.o.nInstall)
		old := inst.snap.Load()
		nd := &snapshot[T]{nBlocks: newN, regionBlocks: rb}
		nd.regions = append(make([]*regionCell[T], 0, nRegions(newN, rb)), old.regions...)
		for i := 0; i < len(rest); i += rb {
			hi := i + rb
			if hi > len(rest) {
				hi = len(rest)
			}
			cell := &regionCell[T]{}
			cell.p.Store(inst.newRegion(append([]*memory.Block[T](nil), rest[i:hi]...)))
			nd.regions = append(nd.regions, cell)
		}
		inst.snapStats.NoteAlloc(false)
		inst.snap.Store(nd)
		inst.nextLocaleID = locID
		flipped := oldBoundary // nil when step 3 did not run
		here := sub.Here().ID()
		if ls != nil {
			ls.End(a.o.nInstall)
		}
		return func() {
			inst.retireSnapshot(old)
			if flipped != nil {
				inst.retireRegion(flipped[here])
			}
		}
	})
	rs.end(a.o.nInstall, a.o.installNs)
	a.regionEvent(RegionEvent{Op: "grow", Kind: "dir", Region: nRegions(newN, rb), NBlocks: newN})
	a.yield(PointInstallDirPublished)
	rs.finish(a.o.nGrow)
}

// Shrink removes capacity from the tail of the array, by whole blocks (an
// extension beyond the paper, which notes that only expansion is covered).
// References into the removed region become invalid; the removed blocks
// return to their owners' pools, where poison-on-free turns any stale access
// into a detected use-after-free.
//
// Shrink batches its region retirements: the narrower directory — with a
// *fresh* cell for a truncated boundary region, so readers still on the old
// directory keep their exact old view — is published first, then ONE grace
// period covers the old directory, the old boundary table, and every
// fully-removed region table, which are retired together before the victim
// blocks return to their pools.
func (a *Array[T]) Shrink(t *locale.Task, removed int) {
	if removed <= 0 {
		panic(fmt.Sprintf("core: Shrink by %d", removed))
	}
	bs := a.opts.BlockSize
	rb := a.opts.RegionBlocks
	nBlocks := (removed + bs - 1) / bs

	var rs resizeSpans
	rs.start(a.o, t, a.o.nShrink)
	if rs.on {
		a.o.shrinks.Inc()
	}
	defer rs.finish(a.o.nShrink)

	rs.begin(a.o.nLock)
	a.writeLock.Acquire(t)
	rs.end(a.o.nLock, a.o.lockNs)
	defer a.writeLock.Release(t)

	cur := a.inst(t).snap.Load()
	if nBlocks > cur.nBlocks {
		panic(fmt.Sprintf("core: Shrink of %d blocks exceeds %d present", nBlocks, cur.nBlocks))
	}
	keep := cur.nBlocks - nBlocks
	victims := make([]*memory.Block[T], 0, nBlocks)
	for bi := keep; bi < cur.nBlocks; bi++ {
		victims = append(victims, cur.blockAt(bi))
	}

	// Phase 1: every locale publishes the truncated directory and
	// batch-retires its orphaned metadata. After the coforall, no new
	// reader can reach the victim blocks, and under EBR no old reader
	// remains either.
	keepRegions := nRegions(keep, rb)
	orphans := nRegions(cur.nBlocks, rb) - keepRegions
	if keep%rb != 0 {
		orphans++ // the old boundary table, replaced by a truncated one
	}
	rs.begin(a.o.nInstall)
	a.publishAll(t, func(sub *locale.Task, inst *instance[T]) func() {
		ls := rs.localeSpan(a.o, sub, a.o.nInstall)
		old := inst.snap.Load()
		nd := &snapshot[T]{nBlocks: keep, regionBlocks: rb}
		nd.regions = append([]*regionCell[T](nil), old.regions[:keepRegions]...)
		var retired []*regionTable[T]
		if keep%rb != 0 {
			// Fresh cell + truncated table for the boundary region:
			// readers on the old directory keep addressing the old table
			// (victims stay readable until the blocks are freed, exactly
			// the flat-layout semantics); readers on the new directory
			// never reach past keep anyway.
			b := keepRegions - 1
			oldRT := old.regions[b].load()
			cell := &regionCell[T]{}
			cell.p.Store(inst.newRegion(append([]*memory.Block[T](nil), oldRT.blocks[:keep-b*rb]...)))
			nd.regions[b] = cell
			retired = append(retired, oldRT)
		}
		for _, c := range old.regions[keepRegions:] {
			retired = append(retired, c.load())
		}
		inst.snapStats.NoteAlloc(false)
		inst.snap.Store(nd)
		if ls != nil {
			ls.End(a.o.nInstall)
		}
		return func() { // batched: one grace period retires everything
			inst.retireSnapshot(old)
			for _, rt := range retired {
				inst.retireRegion(rt)
			}
		}
	})
	rs.end(a.o.nInstall, a.o.installNs)
	a.regionEvent(RegionEvent{Op: "shrink", Kind: "dir", Region: keepRegions, NBlocks: keep})
	a.regionEvent(RegionEvent{Op: "shrink", Kind: "retire-batch", Region: orphans, NBlocks: keep})
	a.yield(PointInstallDirPublished)

	// Phase 2: free the victim blocks on their owning locales. Under EBR
	// this is immediately safe (the phase-1 grace covered every locale);
	// under QSBR it is deferred with a safe epoch newer than every phase-1
	// transition, so Lemma 5 extends to the blocks.
	rs.begin(a.o.nFree)
	a.freeBlocksByOwner(t, victims)
	rs.end(a.o.nFree, a.o.freeNs)
}

// freeBlocksByOwner returns blocks to their owners' pools, immediately for
// EBR and via a deferral for QSBR.
func (a *Array[T]) freeBlocksByOwner(t *locale.Task, victims []*memory.Block[T]) {
	byOwner := make(map[int][]*memory.Block[T])
	for _, b := range victims {
		byOwner[b.Owner] = append(byOwner[b.Owner], b)
	}
	for owner, blocks := range byOwner {
		owner, blocks := owner, blocks
		t.On(owner, func(sub *locale.Task) {
			pool := a.inst(sub).pool
			free := func() {
				for _, b := range blocks {
					pool.Free(b)
				}
			}
			if a.opts.Variant == VariantQSBR {
				sub.QSBR().Defer(free)
			} else {
				free()
			}
		})
	}
}

// Destroy tears the array down: every locale transitions to an empty
// directory, every region table is batch-retired, and all blocks return to
// their pools. The array must not be used afterwards. Tests use Destroy to
// assert leak-freedom.
func (a *Array[T]) Destroy(t *locale.Task) {
	a.writeLock.Acquire(t)
	defer a.writeLock.Release(t)

	victims := a.inst(t).snap.Load().blockList()
	a.publishAll(t, func(sub *locale.Task, inst *instance[T]) func() {
		old := inst.snap.Load()
		// Capture the tables now: retiring the directory poisons its
		// region slice.
		tables := make([]*regionTable[T], len(old.regions))
		for i, c := range old.regions {
			tables[i] = c.load()
		}
		nd := &snapshot[T]{regionBlocks: a.opts.RegionBlocks}
		inst.snapStats.NoteAlloc(false)
		inst.snap.Store(nd)
		return func() {
			inst.retireSnapshot(old)
			for _, rt := range tables {
				inst.retireRegion(rt)
			}
		}
	})
	a.regionEvent(RegionEvent{Op: "destroy", Kind: "retire-batch", Region: 0, NBlocks: 0})
	a.freeBlocksByOwner(t, victims)
}

// SnapshotLiveMax returns the high-water mark of simultaneously live
// directories on the given locale — Lemma 1's bound (at most two).
func (a *Array[T]) SnapshotLiveMax(c *locale.Cluster, loc int) int64 {
	var max int64
	locale.EachPrivatized[*instance[T]](c, a.pid, func(l *locale.Locale, inst *instance[T]) {
		if l.ID() == loc {
			max = inst.snapStats.LiveMax()
		}
	})
	return max
}

// RegionLive returns (live, liveMax) region-table counts on the given
// locale, for the region lifecycle tests.
func (a *Array[T]) RegionLive(c *locale.Cluster, loc int) (live, liveMax int64) {
	locale.EachPrivatized[*instance[T]](c, a.pid, func(l *locale.Locale, inst *instance[T]) {
		if l.ID() == loc {
			live, liveMax = inst.regionStats.Live(), inst.regionStats.LiveMax()
		}
	})
	return live, liveMax
}

// BlockDistribution returns how many blocks each locale owns in the current
// snapshot, as seen from the calling task's locale. Tests assert the
// round-robin (block-cyclic) placement.
func (a *Array[T]) BlockDistribution(t *locale.Task) []int {
	counts := make([]int, a.cluster.NumLocales())
	inst := a.inst(t)
	tally := func() {
		s := inst.snap.Load()
		for bi := 0; bi < s.nBlocks; bi++ {
			counts[s.blockAt(bi).Owner]++
		}
	}
	if a.opts.Variant == VariantQSBR {
		tally()
	} else {
		inst.dom.ReadSlot(t.Slot(), tally)
	}
	return counts
}

// EBRStats returns (retries, synchronizes) summed over the array's
// per-locale domains, for the ablation benchmarks. Zero for QSBR arrays.
func (a *Array[T]) EBRStats(c *locale.Cluster) (retries, synchronizes uint64) {
	locale.EachPrivatized[*instance[T]](c, a.pid, func(_ *locale.Locale, inst *instance[T]) {
		retries += inst.dom.Retries()
		synchronizes += inst.dom.Synchronizes()
	})
	return retries, synchronizes
}
