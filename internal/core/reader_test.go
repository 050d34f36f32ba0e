package core

import (
	"testing"
	"time"

	"rcuarray/internal/ebr"
	"rcuarray/internal/locale"
)

// A sequential scan through a pinned session misses once per block and hits
// everywhere else, returning the same values as plain Load.
func TestReaderSequentialScan(t *testing.T) {
	bothVariants(t, func(t *testing.T, v Variant) {
		c := newTestCluster(t, 2, 1)
		c.Run(func(task *locale.Task) {
			const bs, capacity = 8, 64
			a := New[int](task, Options{BlockSize: bs, Variant: v, InitialCapacity: capacity})
			for i := 0; i < capacity; i++ {
				a.Store(task, i, i*3)
			}
			rd := a.Reader(task)
			defer rd.Close()
			if got := rd.Len(); got != capacity {
				t.Fatalf("Len = %d, want %d", got, capacity)
			}
			for i := 0; i < capacity; i++ {
				if got := rd.Load(i); got != i*3 {
					t.Fatalf("Load(%d) = %d, want %d", i, got, i*3)
				}
			}
			hits, misses := rd.CacheStats()
			if wantMisses := uint64(capacity / bs); misses != wantMisses {
				t.Errorf("misses = %d, want %d (one per block)", misses, wantMisses)
			}
			if wantHits := uint64(capacity - capacity/bs); hits != wantHits {
				t.Errorf("hits = %d, want %d", hits, wantHits)
			}
		})
	})
}

// Ping-ponging between blocks defeats the one-entry cache: every access
// crosses a block boundary and misses.
func TestReaderCacheMissOnBlockCrossing(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	c.Run(func(task *locale.Task) {
		a := New[int](task, Options{BlockSize: 4, Variant: VariantEBR, InitialCapacity: 16})
		rd := a.Reader(task)
		defer rd.Close()
		for i := 0; i < 10; i++ {
			rd.Load(0)
			rd.Load(8) // different block
		}
		hits, misses := rd.CacheStats()
		if hits != 0 || misses != 20 {
			t.Errorf("hits=%d misses=%d, want 0/20", hits, misses)
		}
	})
}

// Stores through a session land in the array and are visible to plain
// loads afterwards.
func TestReaderStore(t *testing.T) {
	bothVariants(t, func(t *testing.T, v Variant) {
		c := newTestCluster(t, 2, 1)
		c.Run(func(task *locale.Task) {
			a := New[int](task, Options{BlockSize: 4, Variant: v, InitialCapacity: 32})
			rd := a.Reader(task)
			for i := 0; i < 32; i++ {
				rd.Store(i, 100+i)
			}
			rd.Close()
			for i := 0; i < 32; i++ {
				if got := a.Load(task, i); got != 100+i {
					t.Fatalf("Load(%d) = %d after session stores", i, got)
				}
			}
		})
	})
}

// The pin budget forces periodic repins: ops/budget windows, counted by
// Repins. QSBR sessions never repin.
func TestReaderBudgetRepins(t *testing.T) {
	const ops = 2*ebr.DefaultPinBudget + 52
	c := newTestCluster(t, 1, 1)
	c.Run(func(task *locale.Task) {
		a := New[int](task, Options{BlockSize: 8, Variant: VariantEBR, InitialCapacity: 64})
		rd := a.Reader(task)
		defer rd.Close()
		for op := 0; op < ops; op++ {
			rd.Load(op % 64)
		}
		if got := rd.Repins(); got != 2 { // repins at op 1024 and 2048
			t.Errorf("Repins after %d ops with budget %d = %d, want 2", ops, ebr.DefaultPinBudget, got)
		}
	})
	c2 := newTestCluster(t, 1, 1)
	c2.Run(func(task *locale.Task) {
		a := New[int](task, Options{BlockSize: 8, Variant: VariantQSBR, InitialCapacity: 64})
		rd := a.Reader(task)
		defer rd.Close()
		for op := 0; op < ops; op++ {
			rd.Load(op % 64)
		}
		if got := rd.Repins(); got != 0 {
			t.Errorf("QSBR session Repins = %d, want 0", got)
		}
	})
}

// An open EBR session blocks a concurrent Grow (its Synchronize waits on
// the pinned epoch); Repin hands the writer its grace period, and a
// re-resolved session observes the new capacity.
func TestReaderPinBlocksGrowUntilRepin(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	c.Run(func(task *locale.Task) {
		a := New[int](task, Options{BlockSize: 4, Variant: VariantEBR, InitialCapacity: 8})
		rd := a.Reader(task)
		defer rd.Close()

		done := make(chan struct{})
		go c.Run(func(wt *locale.Task) {
			a.Grow(wt, 4)
			close(done)
		})
		select {
		case <-done:
			t.Fatal("Grow completed past an open pinned session")
		case <-time.After(10 * time.Millisecond):
		}

		rd.Repin()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Grow did not complete after the session repinned")
		}
		rd.Repin() // the grow has fully published; observe it
		if got := rd.Len(); got != 12 {
			t.Errorf("session Len after repin = %d, want 12", got)
		}
	})
}

// A session's snapshot is stable within a pin window: a concurrent Grow
// becomes visible only after Repin. (QSBR, where Grow never blocks on the
// session, makes the staleness window directly observable.)
func TestReaderSnapshotStableUntilRepin(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	c.Run(func(task *locale.Task) {
		a := New[int](task, Options{BlockSize: 4, Variant: VariantQSBR, InitialCapacity: 8})
		rd := a.Reader(task)
		defer rd.Close()
		if got := rd.Len(); got != 8 {
			t.Fatalf("Len = %d, want 8", got)
		}
		a.Grow(task, 8)
		if got := rd.Len(); got != 8 {
			t.Errorf("Len after concurrent Grow = %d, want stale 8", got)
		}
		rd.Repin()
		if got := rd.Len(); got != 16 {
			t.Errorf("Len after Repin = %d, want 16", got)
		}
	})
}

func TestReaderCloseIdempotentAndUseAfterClose(t *testing.T) {
	bothVariants(t, func(t *testing.T, v Variant) {
		c := newTestCluster(t, 1, 1)
		c.Run(func(task *locale.Task) {
			a := New[int](task, Options{BlockSize: 4, Variant: v, InitialCapacity: 8})
			rd := a.Reader(task)
			rd.Load(0)
			rd.Close()
			rd.Close() // idempotent
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Load after Close did not panic")
					}
				}()
				rd.Load(0)
			}()
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Repin after Close did not panic")
					}
				}()
				rd.Repin()
			}()
			// The session released its pin: resizes proceed.
			a.Grow(task, 4)
			if got := a.Len(task); got != 12 {
				t.Fatalf("Len after close+grow = %d", got)
			}
		})
	})
}

// An out-of-range index panics against the session snapshot; the session
// survives (the pin is not leaked) and, once closed, writers proceed.
func TestReaderOutOfRangePanicDoesNotLeakPin(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	c.Run(func(task *locale.Task) {
		a := New[int](task, Options{BlockSize: 4, Variant: VariantEBR, InitialCapacity: 8})
		rd := a.Reader(task)
		for _, idx := range []int{-1, 8, 1 << 20} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Index(%d) did not panic", idx)
					}
				}()
				rd.Index(idx)
			}()
		}
		if got := rd.Load(3); got != 0 { // session still usable
			t.Fatalf("Load(3) after recovered panics = %d", got)
		}
		rd.Close()
		growCompletes(t, c, a) // no leaked reader counter
	})
}

// Sessions on distinct worker tasks of one locale pin distinct stripes and
// coexist; throughput correctness: per-task sums over a striped scan match.
func TestReaderPerTaskSessions(t *testing.T) {
	const workers = 4
	c := newTestCluster(t, 1, workers)
	c.Run(func(task *locale.Task) {
		const bs, capacity = 8, 64
		a := New[int](task, Options{BlockSize: bs, Variant: VariantEBR, InitialCapacity: capacity})
		for i := 0; i < capacity; i++ {
			a.Store(task, i, 1)
		}
		task.Coforall(func(sub *locale.Task) {
			sub.ForAllTasks(workers, func(tt *locale.Task, id int) {
				rd := a.Reader(tt)
				defer rd.Close()
				sum := 0
				for i := 0; i < capacity; i++ {
					sum += rd.Load(i)
				}
				if sum != capacity {
					t.Errorf("task %d sum = %d, want %d", id, sum, capacity)
				}
			})
		})
		growCompletes(t, c, a)
	})
}

// growCompletes asserts a Grow driven by a fresh task finishes promptly —
// i.e. no reader counter was leaked by whatever ran before.
func growCompletes(t *testing.T, c *locale.Cluster, a *Array[int]) {
	t.Helper()
	done := make(chan struct{})
	go c.Run(func(wt *locale.Task) {
		a.Grow(wt, 4)
		close(done)
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Grow wedged: a reader counter leaked")
	}
}
