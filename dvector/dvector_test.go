package dvector_test

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"rcuarray"
	"rcuarray/dvector"
)

func newCluster(t *testing.T, locales int) *rcuarray.Cluster {
	t.Helper()
	c := rcuarray.NewCluster(rcuarray.ClusterConfig{Locales: locales, TasksPerLocale: 2})
	t.Cleanup(c.Shutdown)
	return c
}

func bothReclaims(t *testing.T, fn func(t *testing.T, r rcuarray.Reclaim)) {
	t.Helper()
	for _, r := range []rcuarray.Reclaim{rcuarray.EBR, rcuarray.QSBR} {
		r := r
		t.Run(r.String(), func(t *testing.T) { fn(t, r) })
	}
}

func TestPushAtLen(t *testing.T) {
	bothReclaims(t, func(t *testing.T, r rcuarray.Reclaim) {
		c := newCluster(t, 2)
		c.Run(func(task *rcuarray.Task) {
			v := dvector.New[int](task, dvector.Options{BlockSize: 4, Reclaim: r})
			if v.Len() != 0 {
				t.Fatalf("new vector Len = %d", v.Len())
			}
			for i := 0; i < 20; i++ {
				if got := v.Push(task, i*10); got != i {
					t.Fatalf("Push returned index %d, want %d", got, i)
				}
			}
			if v.Len() != 20 {
				t.Fatalf("Len = %d, want 20", v.Len())
			}
			for i := 0; i < 20; i++ {
				if got := v.At(task, i); got != i*10 {
					t.Fatalf("At(%d) = %d, want %d", i, got, i*10)
				}
			}
		})
	})
}

func TestPushGrowsGeometrically(t *testing.T) {
	c := newCluster(t, 2)
	c.Run(func(task *rcuarray.Task) {
		v := dvector.New[int](task, dvector.Options{BlockSize: 4})
		for i := 0; i < 64; i++ {
			v.Push(task, i)
		}
		// Doubling from 4: 4,8,16,32,64 — capacity must be 64, not 4*16.
		if got := v.Cap(task); got != 64 {
			t.Fatalf("Cap = %d, want 64", got)
		}
	})
}

func TestPushAllBulk(t *testing.T) {
	c := newCluster(t, 2)
	c.Run(func(task *rcuarray.Task) {
		v := dvector.New[int](task, dvector.Options{BlockSize: 4})
		if got := v.PushAll(task, nil); got != 0 {
			t.Fatalf("empty PushAll returned %d", got)
		}
		xs := make([]int, 33)
		for i := range xs {
			xs[i] = i
		}
		if got := v.PushAll(task, xs); got != 0 {
			t.Fatalf("PushAll start = %d", got)
		}
		if got := v.PushAll(task, []int{100, 101}); got != 33 {
			t.Fatalf("second PushAll start = %d, want 33", got)
		}
		if v.Len() != 35 {
			t.Fatalf("Len = %d, want 35", v.Len())
		}
		if v.At(task, 34) != 101 || v.At(task, 32) != 32 {
			t.Fatal("PushAll contents wrong")
		}
	})
}

func TestSetAndRef(t *testing.T) {
	c := newCluster(t, 2)
	c.Run(func(task *rcuarray.Task) {
		v := dvector.New[int](task, dvector.Options{BlockSize: 4})
		v.PushAll(task, []int{1, 2, 3})
		v.Set(task, 1, 22)
		if got := v.At(task, 1); got != 22 {
			t.Fatalf("after Set, At(1) = %d", got)
		}
		r := v.Ref(task, 2)
		v.PushAll(task, make([]int, 30)) // forces growth
		r.Store(task, 33)
		if got := v.At(task, 2); got != 33 {
			t.Fatalf("Ref store lost across growth: %d", got)
		}
	})
}

func TestOutOfRangePanics(t *testing.T) {
	c := newCluster(t, 1)
	c.Run(func(task *rcuarray.Task) {
		v := dvector.New[int](task, dvector.Options{BlockSize: 4})
		v.Push(task, 1)
		for name, fn := range map[string]func(){
			"At(-1)":    func() { v.At(task, -1) },
			"At(Len)":   func() { v.At(task, 1) },
			"Set(Len)":  func() { v.Set(task, 1, 0) },
			"Ref(Len)":  func() { v.Ref(task, 1) },
			"Truncate+": func() { v.Truncate(task, 2) },
			"Truncate-": func() { v.Truncate(task, -1) },
		} {
			assertPanics(t, name, fn)
		}
	})
}

func TestPop(t *testing.T) {
	bothReclaims(t, func(t *testing.T, r rcuarray.Reclaim) {
		c := newCluster(t, 2)
		c.Run(func(task *rcuarray.Task) {
			v := dvector.New[int](task, dvector.Options{BlockSize: 4, Reclaim: r})
			if _, ok := v.Pop(task); ok {
				t.Fatal("Pop of empty vector succeeded")
			}
			for i := 0; i < 10; i++ {
				v.Push(task, i)
			}
			for i := 9; i >= 0; i-- {
				x, ok := v.Pop(task)
				if !ok || x != i {
					t.Fatalf("Pop = %d,%v want %d,true", x, ok, i)
				}
			}
			if v.Len() != 0 {
				t.Fatalf("Len after pops = %d", v.Len())
			}
		})
	})
}

func TestPopShrinksWithHysteresis(t *testing.T) {
	c := newCluster(t, 2)
	c.Run(func(task *rcuarray.Task) {
		v := dvector.New[int](task, dvector.Options{BlockSize: 4, ShrinkFactor: 2})
		for i := 0; i < 64; i++ {
			v.Push(task, i)
		}
		capBefore := v.Cap(task)
		v.Truncate(task, 4)
		capAfter := v.Cap(task)
		if capAfter >= capBefore {
			t.Fatalf("Truncate did not shrink: %d -> %d", capBefore, capAfter)
		}
		// Hysteresis: capacity stays >= max(len*factor, one block).
		if capAfter < 4 {
			t.Fatalf("shrunk below live data: cap=%d", capAfter)
		}
		// Data below the new length survives.
		for i := 0; i < 4; i++ {
			if got := v.At(task, i); got != i {
				t.Fatalf("At(%d) = %d after shrink", i, got)
			}
		}
	})
}

func TestShrinkDisabled(t *testing.T) {
	c := newCluster(t, 1)
	c.Run(func(task *rcuarray.Task) {
		v := dvector.New[int](task, dvector.Options{BlockSize: 4, ShrinkFactor: -1})
		for i := 0; i < 32; i++ {
			v.Push(task, i)
		}
		capBefore := v.Cap(task)
		v.Truncate(task, 0)
		if got := v.Cap(task); got != capBefore {
			t.Fatalf("disabled shrink still shrank: %d -> %d", capBefore, got)
		}
	})
}

func TestRange(t *testing.T) {
	c := newCluster(t, 2)
	c.Run(func(task *rcuarray.Task) {
		v := dvector.New[int](task, dvector.Options{BlockSize: 4})
		for i := 0; i < 10; i++ {
			v.Push(task, i*i)
		}
		var visited []int
		v.Range(task, func(i, x int) bool {
			visited = append(visited, x)
			return true
		})
		if len(visited) != 10 || visited[3] != 9 {
			t.Fatalf("Range visited %v", visited)
		}
		count := 0
		v.Range(task, func(i, x int) bool {
			count++
			return count < 3
		})
		if count != 3 {
			t.Fatalf("early-exit Range visited %d", count)
		}
	})
}

// Every locale pushes and reads committed slots while locale 0 also pops:
// pushes - pops == Len, and no value is observed twice across the popped
// values and the survivors.
func TestConcurrentPushersAndReaders(t *testing.T) {
	bothReclaims(t, func(t *testing.T, r rcuarray.Reclaim) {
		c := newCluster(t, 3)
		c.Run(func(task *rcuarray.Task) {
			v := dvector.New[int64](task, dvector.Options{BlockSize: 32, Reclaim: r})
			const perLocale = 1000
			// Only locale 0 pops, so its own reads span all of Len. It
			// pushes before each pop, so Len falls at most 1 below a value
			// another locale samples: there an index below Len-1 stays
			// committed until the read lands. floor only keeps the pops
			// from draining the vector.
			const floor = 64
			var badReads atomic.Int64
			var popped []int64
			task.Coforall(func(sub *rcuarray.Task) {
				id := sub.Here().ID()
				for i := 0; i < perLocale; i++ {
					v.Push(sub, int64(id*perLocale+i))
					n := v.Len()
					if id != 0 {
						n--
					}
					if n > 0 {
						// Any committed element must read back without
						// panicking, even mid-growth; n-1 is the newest
						// one this locale may read, the likeliest to sit
						// in a block the growth is still adding.
						for _, k := range []int{(id*31 + i) % n, n - 1} {
							if x := v.At(sub, k); x < 0 || x >= 3*perLocale {
								badReads.Add(1)
							}
						}
					}
					if id == 0 && i%4 == 0 && v.Len() > floor {
						if x, ok := v.Pop(sub); ok {
							popped = append(popped, x)
						}
					}
					if r == rcuarray.QSBR && i%128 == 0 {
						sub.Checkpoint()
					}
				}
			})
			if badReads.Load() != 0 {
				t.Fatalf("%d out-of-domain reads", badReads.Load())
			}
			if len(popped) == 0 {
				t.Fatal("no pops ran")
			}
			if got, want := v.Len(), 3*perLocale-len(popped); got != want {
				t.Fatalf("Len = %d, want pushes-pops = %d", got, want)
			}
			// Every value present exactly once, popped or surviving.
			seen := make(map[int64]bool)
			for _, x := range popped {
				if seen[x] {
					t.Errorf("popped %d twice", x)
				}
				seen[x] = true
			}
			v.Range(task, func(i int, x int64) bool {
				if seen[x] {
					t.Errorf("duplicate %d", x)
				}
				seen[x] = true
				return true
			})
			if len(seen) != 3*perLocale {
				t.Fatalf("%d distinct values, want %d", len(seen), 3*perLocale)
			}
		})
	})
}

// Property test: the vector agrees with a plain slice model under any
// single-task sequence of push/pop/set operations.
func TestModelEquivalenceProperty(t *testing.T) {
	c := newCluster(t, 2)
	c.Run(func(task *rcuarray.Task) {
		f := func(ops []uint16) bool {
			v := dvector.New[int](task, dvector.Options{BlockSize: 4})
			defer v.Destroy(task)
			var model []int
			for step, op := range ops {
				switch op % 3 {
				case 0: // push
					v.Push(task, step)
					model = append(model, step)
				case 1: // pop
					x, ok := v.Pop(task)
					if len(model) == 0 {
						if ok {
							return false
						}
						continue
					}
					want := model[len(model)-1]
					model = model[:len(model)-1]
					if !ok || x != want {
						return false
					}
				case 2: // set
					if len(model) == 0 {
						continue
					}
					i := int(op) % len(model)
					v.Set(task, i, step+1000)
					model[i] = step + 1000
				}
			}
			if v.Len() != len(model) {
				return false
			}
			for i, want := range model {
				if v.At(task, i) != want {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDestroy(t *testing.T) {
	c := newCluster(t, 2)
	c.Run(func(task *rcuarray.Task) {
		v := dvector.New[int](task, dvector.Options{BlockSize: 4})
		v.PushAll(task, []int{1, 2, 3})
		v.Destroy(task)
		if v.Len() != 0 {
			t.Fatalf("Len after Destroy = %d", v.Len())
		}
	})
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic, got none", name)
		}
	}()
	fn()
}
