package rcuarray_test

import (
	"sync/atomic"
	"testing"

	"rcuarray"
)

func newCluster(t *testing.T, locales int) *rcuarray.Cluster {
	t.Helper()
	c := rcuarray.NewCluster(rcuarray.ClusterConfig{Locales: locales, TasksPerLocale: 2})
	t.Cleanup(c.Shutdown)
	return c
}

func TestPublicQuickstartFlow(t *testing.T) {
	c := newCluster(t, 4)
	if c.NumLocales() != 4 {
		t.Fatalf("NumLocales = %d", c.NumLocales())
	}
	c.Run(func(task *rcuarray.Task) {
		a := rcuarray.New[int64](task, rcuarray.Options{
			BlockSize:       64,
			Reclaim:         rcuarray.QSBR,
			InitialCapacity: 256,
		})
		a.Store(task, 17, 42)
		a.Grow(task, 256)
		if got := a.Load(task, 17); got != 42 {
			t.Fatalf("a[17] = %d", got)
		}
		if got := a.Len(task); got != 512 {
			t.Fatalf("Len = %d", got)
		}
		task.Checkpoint()
	})
}

func TestPublicReclaimNames(t *testing.T) {
	if rcuarray.EBR.String() != "EBR" || rcuarray.QSBR.String() != "QSBR" {
		t.Fatal("Reclaim names wrong")
	}
}

func TestPublicEBRArray(t *testing.T) {
	c := newCluster(t, 2)
	c.Run(func(task *rcuarray.Task) {
		a := rcuarray.New[string](task, rcuarray.Options{BlockSize: 4, InitialCapacity: 8})
		a.Store(task, 7, "hello")
		if got := a.Load(task, 7); got != "hello" {
			t.Fatalf("a[7] = %q", got)
		}
		if a.BlockSize() != 4 {
			t.Fatalf("BlockSize = %d", a.BlockSize())
		}
	})
}

func TestPublicRefSurvivesGrow(t *testing.T) {
	c := newCluster(t, 2)
	c.Run(func(task *rcuarray.Task) {
		a := rcuarray.New[int](task, rcuarray.Options{BlockSize: 4, InitialCapacity: 8})
		r := a.Index(task, 5)
		if r.Owner() != 1 {
			t.Fatalf("Owner = %d, want 1", r.Owner())
		}
		a.Grow(task, 8)
		r.Store(task, 9)
		if got := a.Load(task, 5); got != 9 {
			t.Fatalf("a[5] = %d", got)
		}
	})
}

func TestPublicShrinkDestroy(t *testing.T) {
	c := newCluster(t, 2)
	c.Run(func(task *rcuarray.Task) {
		a := rcuarray.New[int](task, rcuarray.Options{BlockSize: 4, InitialCapacity: 16})
		a.Shrink(task, 8)
		if got := a.Len(task); got != 8 {
			t.Fatalf("Len after Shrink = %d", got)
		}
		a.Destroy(task)
		if got := a.Len(task); got != 0 {
			t.Fatalf("Len after Destroy = %d", got)
		}
	})
}

func TestPublicConcurrentGrowAndUpdate(t *testing.T) {
	c := newCluster(t, 3)
	c.Run(func(task *rcuarray.Task) {
		a := rcuarray.New[int64](task, rcuarray.Options{
			BlockSize: 32, Reclaim: rcuarray.QSBR, InitialCapacity: 96,
		})
		var ops atomic.Int64
		task.Coforall(func(sub *rcuarray.Task) {
			sub.ForAllTasks(2, func(tt *rcuarray.Task, id int) {
				// Disjoint 16-element stripe per task: element access is
				// plain memory, so concurrent same-slot stores would be
				// data races by the array's semantics.
				base := (tt.Here().ID()*2 + id) * 16
				for i := 0; i < 200; i++ {
					if tt.Here().ID() == 0 && id == 0 && i%50 == 49 {
						a.Grow(tt, 32)
						continue
					}
					a.Store(tt, base+i%16, int64(i))
					ops.Add(1)
					if i%32 == 0 {
						tt.Checkpoint()
					}
				}
			})
		})
		if ops.Load() == 0 {
			t.Fatal("no operations completed")
		}
		if got := a.Len(task); got != 96+4*32 {
			t.Fatalf("final Len = %d", got)
		}
	})
}

func TestPublicInternalEscapeHatch(t *testing.T) {
	c := newCluster(t, 2)
	if c.Internal() == nil || c.Internal().NumLocales() != 2 {
		t.Fatal("Internal() did not expose the cluster")
	}
}

func TestPublicBulkOps(t *testing.T) {
	c := newCluster(t, 3)
	c.Run(func(task *rcuarray.Task) {
		a := rcuarray.New[int32](task, rcuarray.Options{BlockSize: 8, InitialCapacity: 48})
		src := []int32{9, 8, 7, 6, 5}
		a.CopyIn(task, 10, src)
		dst := make([]int32, 5)
		a.CopyOut(task, 10, dst)
		for i := range src {
			if dst[i] != src[i] {
				t.Fatalf("bulk round trip: dst[%d] = %d", i, dst[i])
			}
		}
		a.Fill(task, 0, 48, -1)
		if a.Load(task, 10) != -1 || a.Load(task, 47) != -1 {
			t.Fatal("Fill incomplete")
		}
		// Chapel forall: parallel, communication-free local iteration.
		var visited atomic.Int64
		task.Coforall(func(sub *rcuarray.Task) {
			a.LocalBlocks(sub, func(start int, data []int32) {
				visited.Add(int64(len(data)))
			})
		})
		if visited.Load() != 48 {
			t.Fatalf("LocalBlocks visited %d elements, want 48", visited.Load())
		}
	})
}

func TestPublicReaderSession(t *testing.T) {
	c := newCluster(t, 2)
	c.Run(func(task *rcuarray.Task) {
		a := rcuarray.New[int64](task, rcuarray.Options{
			BlockSize:       8,
			InitialCapacity: 64,
		})
		rd := a.Reader(task)
		for i := 0; i < 64; i++ {
			rd.Store(i, int64(i)*2)
		}
		sum := int64(0)
		for i := 0; i < 64; i++ {
			sum += rd.Load(i)
		}
		if sum != 64*63 {
			t.Fatalf("session sum = %d, want %d", sum, 64*63)
		}
		if got := rd.Len(); got != 64 {
			t.Fatalf("session Len = %d, want 64", got)
		}
		hits, misses := rd.CacheStats()
		if hits == 0 || misses == 0 {
			t.Fatalf("cache stats = %d/%d, want both nonzero", hits, misses)
		}
		ref := rd.Index(9)
		if got := ref.Load(task); got != 18 {
			t.Fatalf("ref load = %d, want 18", got)
		}
		rd.Repin()
		rd.Close()
		rd.Close() // idempotent
		// Session released its pin: resizes proceed.
		a.Grow(task, 8)
		if got := a.Len(task); got != 72 {
			t.Fatalf("Len after close+grow = %d", got)
		}
		a.Destroy(task)
	})
}

func TestPublicReaderQSBR(t *testing.T) {
	c := newCluster(t, 1)
	c.Run(func(task *rcuarray.Task) {
		a := rcuarray.New[int64](task, rcuarray.Options{
			BlockSize:       8,
			Reclaim:         rcuarray.QSBR,
			InitialCapacity: 32,
		})
		a.Fill(task, 0, 32, 5)
		rd := a.Reader(task)
		sum := int64(0)
		for i := 0; i < 32; i++ {
			sum += rd.Load(i)
		}
		rd.Close()
		if sum != 160 {
			t.Fatalf("QSBR session sum = %d, want 160", sum)
		}
		task.Checkpoint() // sessions must not span this; closed above
	})
}
