package core

import (
	"slices"
	"testing"

	"rcuarray/internal/locale"
)

// The array is generic: struct elements exercise non-word-sized copies
// through every path.
func TestStructElements(t *testing.T) {
	type point struct {
		X, Y float64
		Tag  string
	}
	bothVariants(t, func(t *testing.T, v Variant) {
		c := newTestCluster(t, 2, 1)
		c.Run(func(task *locale.Task) {
			a := New[point](task, Options{BlockSize: 4, Variant: v, InitialCapacity: 8})
			a.Store(task, 5, point{X: 1.5, Y: -2, Tag: "p5"})
			got := a.Load(task, 5)
			if got.X != 1.5 || got.Tag != "p5" {
				t.Fatalf("struct round trip = %+v", got)
			}
			a.Grow(task, 4)
			if got := a.Load(task, 5); got.Tag != "p5" {
				t.Fatalf("struct lost across grow: %+v", got)
			}
			buf := make([]point, 3)
			a.CopyOut(task, 4, buf)
			if buf[1].Tag != "p5" {
				t.Fatalf("bulk struct copy = %+v", buf)
			}
		})
	})
}

// Resizes initiated from a non-zero locale follow the same protocol: the
// WriteLock is remote, the cursor still replicates.
func TestGrowFromRemoteLocale(t *testing.T) {
	c := newTestCluster(t, 3, 1)
	c.Run(func(task *locale.Task) {
		a := New[int](task, Options{BlockSize: 4, Variant: VariantEBR})
		task.On(2, func(sub *locale.Task) {
			a.Grow(sub, 12) // 3 blocks, from locale 2
		})
		if got := a.Len(task); got != 12 {
			t.Fatalf("Len = %d", got)
		}
		dist := a.BlockDistribution(task)
		if dist[0]+dist[1]+dist[2] != 3 {
			t.Fatalf("distribution = %v", dist)
		}
		// Cursor replicated everywhere: growing from locale 1 continues it.
		task.On(1, func(sub *locale.Task) {
			a.Grow(sub, 4)
		})
		dist = a.BlockDistribution(task)
		total := 0
		for _, d := range dist {
			total += d
		}
		if total != 4 {
			t.Fatalf("after second grow, distribution = %v", dist)
		}
	})
}

func TestBlockDistributionQSBRPath(t *testing.T) {
	c := newTestCluster(t, 2, 1)
	c.Run(func(task *locale.Task) {
		a := New[int](task, Options{BlockSize: 4, Variant: VariantQSBR, InitialCapacity: 16})
		dist := a.BlockDistribution(task)
		if dist[0] != 2 || dist[1] != 2 {
			t.Fatalf("distribution = %v", dist)
		}
	})
}

func TestEBRStatsAccumulate(t *testing.T) {
	c := newTestCluster(t, 2, 1)
	c.Run(func(task *locale.Task) {
		a := New[int](task, Options{BlockSize: 4, Variant: VariantEBR})
		a.Grow(task, 8)
		a.Grow(task, 8)
		_, syncs := a.EBRStats(c)
		// Two grows x two locales = four RCU_Write synchronizes.
		if syncs != 4 {
			t.Fatalf("synchronizes = %d, want 4", syncs)
		}
	})
}

func TestSnapshotPrefixAcrossManyGrows(t *testing.T) {
	c := newTestCluster(t, 2, 1)
	c.Run(func(task *locale.Task) {
		a := New[int](task, Options{BlockSize: 4, Variant: VariantQSBR, InitialCapacity: 4})
		inst := a.inst(task)
		for i := 0; i < 10; i++ {
			// Grow parks this task's participant while it waits on the
			// other locale, and a parked participant is quiescent: the
			// snapshot loaded before the grow may be reclaimed, its
			// metadata poisoned, by the time Grow returns. Its blocks are
			// not reclaimed by a grow, so capture them instead.
			before := inst.snap.Load().blockList()
			a.Grow(task, 4)
			after := inst.snap.Load().blockList()
			if len(after) < len(before) || !slices.Equal(before, after[:len(before)]) {
				t.Fatalf("grow %d broke the prefix property (Lemma 6)", i)
			}
			task.Checkpoint()
		}
	})
}

func TestSingleElementBlocks(t *testing.T) {
	c := newTestCluster(t, 2, 1)
	c.Run(func(task *locale.Task) {
		a := New[int](task, Options{BlockSize: 1, Variant: VariantEBR, InitialCapacity: 5})
		for i := 0; i < 5; i++ {
			a.Store(task, i, i*2)
		}
		for i := 0; i < 5; i++ {
			if got := a.Load(task, i); got != i*2 {
				t.Fatalf("a[%d] = %d", i, got)
			}
		}
		dist := a.BlockDistribution(task)
		if dist[0] != 3 || dist[1] != 2 {
			t.Fatalf("distribution = %v", dist)
		}
	})
}
