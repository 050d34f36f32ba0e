package core

// Tests for Section III-C (concurrent updates and resizing) and its Lemma 6:
// block recycling makes updates through outstanding references visible to
// newer snapshots.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcuarray/internal/locale"
)

// Lemma 6, deterministic version: cloning recycles blocks, so the old
// snapshot is a prefix of the new one and updates through old references
// land in blocks the new snapshot shares.
func TestCloneRecyclesBlocks(t *testing.T) {
	bothVariants(t, func(t *testing.T, v Variant) {
		c := newTestCluster(t, 2, 1)
		c.Run(func(task *locale.Task) {
			a := New[int](task, Options{BlockSize: 4, Variant: v, InitialCapacity: 8})
			inst := a.inst(task)
			before := inst.snap.Load()
			var beforeBlocks []any
			// Materialize the pre-grow block pointers through the region
			// level now: after the Grow retires this directory its region
			// slice is poisoned.
			for _, b := range before.blockList() {
				beforeBlocks = append(beforeBlocks, b)
			}

			r := a.Index(task, 3) // reference into block 0
			a.Grow(task, 8)
			after := inst.snap.Load()

			if v == VariantEBR {
				// EBR reclaims eagerly: the pre-grow snapshot is
				// already retired, but its blocks live on.
				if before.Live() {
					t.Error("old snapshot still live after EBR Grow")
				}
			}
			// Prefix property: every pre-grow block pointer is
			// recycled at the same position.
			for i, b := range beforeBlocks {
				if after.blockAt(i) != b {
					t.Fatalf("block %d not recycled", i)
				}
			}
			// An update through the old reference is visible via the
			// new snapshot (this is the lost-update scenario of
			// Section III-C, prevented by recycling).
			r.Store(task, 42)
			if got := a.Load(task, 3); got != 42 {
				t.Fatalf("update through stale ref lost: a[3] = %d", got)
			}
		})
	})
}

// The lost-update race, dynamically: updaters continuously write through
// references obtained before and during resizes; every completed write must
// be visible afterwards.
func TestUpdatesNeverLostDuringGrow(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	bothVariants(t, func(t *testing.T, v Variant) {
		c := newTestCluster(t, 2, 4)
		c.Run(func(task *locale.Task) {
			const blockSize = 16
			a := New[int64](task, Options{BlockSize: blockSize, Variant: v, InitialCapacity: blockSize})

			var stop atomic.Bool
			var growErr atomic.Value
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // concurrent grower (driver-side goroutine)
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						growErr.Store(r)
					}
					stop.Store(true)
				}()
				for i := 0; i < 30; i++ {
					c.Run(func(gt *locale.Task) { a.Grow(gt, blockSize) })
					time.Sleep(time.Millisecond)
				}
			}()

			// Updaters hammer the first block through fresh references.
			task.ForAllTasks(4, func(tt *locale.Task, id int) {
				for i := int64(1); !stop.Load(); i++ {
					r := a.Index(tt, id)
					r.Store(tt, i)
					if got := r.Load(tt); got != i {
						t.Errorf("task %d: read back %d, want %d", id, got, i)
						return
					}
					if v == VariantQSBR && i%64 == 0 {
						tt.Checkpoint()
					}
				}
			})
			wg.Wait()
			if r := growErr.Load(); r != nil {
				t.Fatalf("grower panicked: %v", r)
			}
			if got := a.Len(task); got != 31*blockSize {
				t.Fatalf("final Len = %d, want %d", got, 31*blockSize)
			}
		})
	})
}

// Lemma 1: at most two snapshots are live per locale at any time, even
// under a continuous stream of resizes with concurrent readers.
func TestLemma1AtMostTwoLiveSnapshots(t *testing.T) {
	bothVariants(t, func(t *testing.T, v Variant) {
		c := newTestCluster(t, 2, 2)
		c.Run(func(task *locale.Task) {
			a := New[int](task, Options{BlockSize: 4, Variant: v})
			for i := 0; i < 40; i++ {
				a.Grow(task, 4)
				if v == VariantQSBR {
					// QSBR holds old snapshots until quiescence;
					// checkpoint to let the limit apply between
					// resizes, matching the paper's best case.
					task.Checkpoint()
				}
			}
			for loc := 0; loc < c.NumLocales(); loc++ {
				max := a.SnapshotLiveMax(c, loc)
				limit := int64(2)
				if v == VariantQSBR {
					// One pending old snapshot may coexist with
					// the transition pair until the *next*
					// checkpoint drains it.
					limit = 3
				}
				if max > limit {
					t.Errorf("locale %d: %d live snapshots, want <= %d", loc, max, limit)
				}
			}
		})
	})
}

// Concurrent read/update/resize torture across variants and locales: the
// paper's headline property is that none of this crashes or loses data.
// Every task stores tagged values into a private 3-element stripe and checks
// each load against its own model, while one task per locale grows and task
// (0,0) also shrinks, never below the stripes. After Destroy and a drain no
// block is live.
func TestTortureMixedOperations(t *testing.T) {
	if testing.Short() {
		t.Skip("torture test skipped in -short mode")
	}
	bothVariants(t, func(t *testing.T, v Variant) {
		c := newTestCluster(t, 3, 3)
		c.Run(func(task *locale.Task) {
			const blockSize = 8
			const floor = 4 * blockSize // covers all 9 stripes
			a := New[int64](task, Options{BlockSize: blockSize, Variant: v, InitialCapacity: floor})

			var failures, shrinks atomic.Int64
			task.Coforall(func(sub *locale.Task) {
				sub.ForAllTasks(3, func(tt *locale.Task, id int) {
					defer func() {
						if r := recover(); r != nil {
							failures.Add(1)
							t.Errorf("locale %d task %d panicked: %v", tt.Here().ID(), id, r)
						}
					}()
					slot := tt.Here().ID()*3 + id
					base := slot * 3
					var model [3]int64
					for i := 0; i < 400; i++ {
						off := i % 3
						idx := base + off
						switch {
						case i%4 == 0:
							tag := int64(slot)<<32 | int64(i)
							a.Store(tt, idx, tag)
							model[off] = tag
						case id == 0 && i%100 == 3:
							// Only task (0,0) shrinks, one block at a
							// time, and growers never lower Len: the
							// array stays at or above floor.
							if slot == 0 && i%200 == 103 && a.Len(tt) > floor {
								a.Shrink(tt, blockSize)
								shrinks.Add(1)
							} else {
								a.Grow(tt, blockSize)
							}
						default:
							if got := a.Load(tt, idx); got != model[off] {
								failures.Add(1)
								t.Errorf("slot %d: a[%d] = %#x, want %#x", slot, idx, got, model[off])
							}
						}
						if v == VariantQSBR && i%32 == 0 {
							tt.Checkpoint()
						}
					}
				})
			})
			if failures.Load() != 0 {
				t.Fatalf("%d failed operation(s)", failures.Load())
			}
			// Task (0,0) grew at i=3 and i=203, so both of its shrinks ran.
			if got := shrinks.Load(); got != 2 {
				t.Fatalf("%d shrinks ran, want 2", got)
			}

			a.Destroy(task)
			for i := 0; i < 1000 && clusterLiveBlocks(c) != 0; i++ {
				task.Checkpoint()
			}
			if live := clusterLiveBlocks(c); live != 0 {
				t.Fatalf("%d blocks still live after Destroy and drain", live)
			}
		})
	})
}
