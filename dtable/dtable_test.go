package dtable_test

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"rcuarray"
	"rcuarray/dtable"
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

func TestPutGetDelete(t *testing.T) {
	bothReclaims(t, func(t *testing.T, r rcuarray.Reclaim) {
		c := newCluster(t, 3)
		c.Run(func(task *rcuarray.Task) {
			m := dtable.New[string](task, dtable.Options{Reclaim: r})
			if _, ok := m.Get(task, 42); ok {
				t.Fatal("empty map reported a key")
			}
			if !m.Put(task, 42, "answer") {
				t.Fatal("first Put not reported as insert")
			}
			if v, ok := m.Get(task, 42); !ok || v != "answer" {
				t.Fatalf("Get = %q,%v", v, ok)
			}
			if m.Put(task, 42, "updated") {
				t.Fatal("overwrite reported as insert")
			}
			if v, _ := m.Get(task, 42); v != "updated" {
				t.Fatalf("after overwrite, Get = %q", v)
			}
			if !m.Delete(task, 42) {
				t.Fatal("Delete of present key failed")
			}
			if m.Delete(task, 42) {
				t.Fatal("Delete of absent key succeeded")
			}
			if _, ok := m.Get(task, 42); ok {
				t.Fatal("deleted key still present")
			}
		})
	})
}

func TestManyKeysAcrossShards(t *testing.T) {
	bothReclaims(t, func(t *testing.T, r rcuarray.Reclaim) {
		c := newCluster(t, 4)
		c.Run(func(task *rcuarray.Task) {
			m := dtable.New[uint64](task, dtable.Options{Reclaim: r, InitialBuckets: 4})
			const n = 2000
			for k := uint64(0); k < n; k++ {
				m.Put(task, k, k*k)
			}
			if got := m.Len(task); got != n {
				t.Fatalf("Len = %d, want %d", got, n)
			}
			for k := uint64(0); k < n; k++ {
				if v, ok := m.Get(task, k); !ok || v != k*k {
					t.Fatalf("Get(%d) = %d,%v", k, v, ok)
				}
			}
			// Delete the odd keys.
			for k := uint64(1); k < n; k += 2 {
				if !m.Delete(task, k) {
					t.Fatalf("Delete(%d) failed", k)
				}
			}
			if got := m.Len(task); got != n/2 {
				t.Fatalf("Len after deletes = %d, want %d", got, n/2)
			}
			for k := uint64(0); k < n; k++ {
				_, ok := m.Get(task, k)
				if want := k%2 == 0; ok != want {
					t.Fatalf("Get(%d) present=%v, want %v", k, ok, want)
				}
			}
			if r == rcuarray.QSBR {
				task.Checkpoint()
			}
		})
	})
}

func TestResizeGrowsBuckets(t *testing.T) {
	c := newCluster(t, 1)
	c.Run(func(task *rcuarray.Task) {
		m := dtable.New[int](task, dtable.Options{InitialBuckets: 4, MaxLoadFactor: 2})
		before := m.Buckets(task, 0)
		for k := uint64(0); k < 256; k++ {
			m.Put(task, k, int(k))
		}
		after := m.Buckets(task, 0)
		if after <= before {
			t.Fatalf("buckets did not grow: %d -> %d", before, after)
		}
		// Every key survives the rehashes.
		for k := uint64(0); k < 256; k++ {
			if v, ok := m.Get(task, k); !ok || v != int(k) {
				t.Fatalf("Get(%d) = %d,%v after resize", k, v, ok)
			}
		}
	})
}

func TestRangeVisitsAll(t *testing.T) {
	c := newCluster(t, 3)
	c.Run(func(task *rcuarray.Task) {
		m := dtable.New[int](task, dtable.Options{})
		for k := uint64(0); k < 100; k++ {
			m.Put(task, k, 1)
		}
		sum := 0
		m.Range(task, func(k uint64, v int) bool {
			sum += v
			return true
		})
		if sum != 100 {
			t.Fatalf("Range visited %d entries, want 100", sum)
		}
		count := 0
		m.Range(task, func(k uint64, v int) bool {
			count++
			return count < 10
		})
		if count != 10 {
			t.Fatalf("early-exit Range visited %d", count)
		}
	})
}

// One writer's inserts force continuous resizes while every other task checks
// the stable keys and runs Put/Get/Delete on a private key range against an
// exact model of it; the final Len is the sum of all the models.
func TestConcurrentReadersDuringResizeStorm(t *testing.T) {
	bothReclaims(t, func(t *testing.T, r rcuarray.Reclaim) {
		c := newCluster(t, 2)
		c.Run(func(task *rcuarray.Task) {
			m := dtable.New[uint64](task, dtable.Options{
				Reclaim: r, InitialBuckets: 4, MaxLoadFactor: 1,
			})
			// Pre-populate stable keys the readers will verify.
			const stable = 64
			for k := uint64(0); k < stable; k++ {
				m.Put(task, k, k+1000)
			}
			var bad, modelLen atomic.Int64
			task.Coforall(func(sub *rcuarray.Task) {
				sub.ForAllTasks(2, func(tt *rcuarray.Task, id int) {
					if tt.Here().ID() == 0 && id == 0 {
						// Writer: inserts force continuous resizes
						// and deletions churn chains.
						for k := uint64(1000); k < 2200; k++ {
							m.Put(tt, k, k)
							if k%3 == 0 {
								m.Delete(tt, k)
							}
						}
						modelLen.Add(800) // 1200 inserted, 400 deleted
						return
					}
					base := uint64(tt.Here().ID()*2+id) << 32 // private key range
					model := map[uint64]uint64{}
					for i := 0; i < 3000; i++ {
						k := uint64(i % stable)
						if v, ok := m.Get(tt, k); !ok || v != k+1000 {
							bad.Add(1)
						}
						pk := base | uint64(i*7%128)
						want, existed := model[pk]
						switch i % 3 {
						case 0:
							if inserted := m.Put(tt, pk, uint64(i)); inserted == existed {
								bad.Add(1)
							}
							model[pk] = uint64(i)
						case 1:
							if got, ok := m.Get(tt, pk); ok != existed || got != want {
								bad.Add(1)
							}
						case 2:
							if removed := m.Delete(tt, pk); removed != existed {
								bad.Add(1)
							}
							delete(model, pk)
						}
						if r == rcuarray.QSBR && i%64 == 0 {
							tt.Checkpoint()
						}
					}
					modelLen.Add(int64(len(model)))
				})
			})
			if bad.Load() != 0 {
				t.Fatalf("%d lookups or updates disagreed with the models during churn", bad.Load())
			}
			if got, want := int64(m.Len(task)), stable+modelLen.Load(); got != want {
				t.Fatalf("Len = %d, want %d from the models", got, want)
			}
		})
	})
}

// Property: the map agrees with Go's built-in map under any single-task
// operation sequence.
func TestModelEquivalenceProperty(t *testing.T) {
	c := newCluster(t, 2)
	c.Run(func(task *rcuarray.Task) {
		f := func(ops []uint16) bool {
			m := dtable.New[int](task, dtable.Options{InitialBuckets: 2, MaxLoadFactor: 1})
			model := map[uint64]int{}
			for step, op := range ops {
				key := uint64(op % 47)
				switch op % 3 {
				case 0:
					insertedGot := m.Put(task, key, step)
					_, existed := model[key]
					if insertedGot == existed {
						return false
					}
					model[key] = step
				case 1:
					got := m.Delete(task, key)
					_, existed := model[key]
					if got != existed {
						return false
					}
					delete(model, key)
				case 2:
					v, ok := m.Get(task, key)
					want, existed := model[key]
					if ok != existed || (ok && v != want) {
						return false
					}
				}
			}
			if m.Len(task) != len(model) {
				return false
			}
			seen := map[uint64]int{}
			m.Range(task, func(k uint64, v int) bool {
				seen[k] = v
				return true
			})
			if len(seen) != len(model) {
				return false
			}
			for k, v := range model {
				if seen[k] != v {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestEBRStatsExposed(t *testing.T) {
	c := newCluster(t, 2)
	c.Run(func(task *rcuarray.Task) {
		m := dtable.New[int](task, dtable.Options{Reclaim: rcuarray.EBR})
		for k := uint64(0); k < 50; k++ {
			m.Put(task, k, 1)
		}
		_, syncs := m.EBRStats(task)
		if syncs == 0 {
			t.Fatal("no Synchronize calls recorded for EBR writes")
		}
	})
}
