package dtable_test

import (
	"sync"
	"testing"

	"rcuarray"
	"rcuarray/dtable"
	"rcuarray/internal/check"
)

func bindTasks(c *rcuarray.Cluster, n int, fn func(ts []*rcuarray.Task)) {
	ts := make([]*rcuarray.Task, n)
	release := make(chan struct{})
	var ready, done sync.WaitGroup
	ready.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			c.Run(func(tt *rcuarray.Task) {
				ts[i] = tt
				ready.Done()
				<-release
			})
		}(i)
	}
	ready.Wait()
	defer done.Wait()
	defer close(release)
	fn(ts)
}

// runTableLincheck records one seeded schedule against a real Map. Tiny
// shards with MaxLoadFactor 1 make inserts resize constantly, so windows of
// own-stripe ops genuinely overlap RCU bucket-snapshot publication. Each
// task owns a disjoint key stripe during windows (results stay race-free);
// cross-stripe reads happen only at serial points.
func runTableLincheck(t *testing.T, mode rcuarray.Reclaim, seed uint64) {
	c := rcuarray.NewCluster(rcuarray.ClusterConfig{Locales: 2, TasksPerLocale: 2})
	defer c.Shutdown()
	const ntasks = 3
	const stripe = 8
	bindTasks(c, ntasks, func(ts []*rcuarray.Task) {
		m := dtable.New[int64](ts[0], dtable.Options{
			Reclaim:        mode,
			InitialBuckets: 2,
			MaxLoadFactor:  1,
		})
		d := check.NewDriver("dtable/"+mode.String(), seed, ntasks)
		rng := d.RNG()
		seq := make([]int64, ntasks)

		kvOp := func(task int, key int) (check.Op, func(*check.Op)) {
			switch r := rng.Intn(100); {
			case r < 45:
				seq[task]++
				arg := int64(task+1)<<32 | seq[task]
				return check.Op{Kind: check.KindPut, Idx: key, Arg: arg}, func(op *check.Op) {
					if m.Put(ts[task], uint64(op.Idx), op.Arg) {
						op.Out2 = 1
					}
				}
			case r < 80:
				return check.Op{Kind: check.KindGet, Idx: key}, func(op *check.Op) {
					v, ok := m.Get(ts[task], uint64(op.Idx))
					op.Out = v
					if ok {
						op.Out2 = 1
					}
				}
			default:
				return check.Op{Kind: check.KindDel, Idx: key}, func(op *check.Op) {
					if m.Delete(ts[task], uint64(op.Idx)) {
						op.Out2 = 1
					}
				}
			}
		}

		const steps = 50
		var inFlight []int
		for step := 0; step < steps; step++ {
			if rng.Intn(100) < 55 {
				// Serial point: any task, any key (cross-stripe allowed).
				task := rng.Intn(ntasks)
				op, body := kvOp(task, rng.Intn(ntasks*stripe))
				d.Do(task, op, body)
				continue
			}
			// Window: each participating task runs one op on its own
			// stripe, all genuinely concurrent.
			inFlight := inFlight[:0]
			for k := 0; k < ntasks; k++ {
				if rng.Intn(100) >= 70 {
					continue
				}
				op, body := kvOp(k, k*stripe+rng.Intn(stripe))
				d.Begin(k, op, body)
				inFlight = append(inFlight, k)
			}
			for len(inFlight) > 0 {
				i := rng.Intn(len(inFlight))
				d.Await(inFlight[i])
				inFlight = append(inFlight[:i], inFlight[i+1:]...)
			}
		}
		for k := 0; k < ntasks; k++ {
			d.Do(k, check.Op{Kind: check.KindCkpt}, func(*check.Op) { ts[k].Checkpoint() })
		}
		d.Close()

		h := d.History()
		if rep := check.CheckKV(h); !rep.Ok || rep.Inconclusive > 0 {
			t.Fatalf("dtable lincheck failed, seed %d:\n%v\nhistory:\n%s", seed, rep, h.EncodeString())
		}
		// Let QSBR defers from bucket publication drain before Shutdown.
		for k := 0; k < 100; k++ {
			for _, tt := range ts {
				tt.Checkpoint()
			}
		}
	})
}

// TestLincheckTable is the dtable smoke lincheck: a handful of seeds per
// reclamation mode, partitioned by key through the shared checker.
func TestLincheckTable(t *testing.T) {
	for _, mode := range []rcuarray.Reclaim{rcuarray.EBR, rcuarray.QSBR} {
		for seed := uint64(1); seed <= 5; seed++ {
			runTableLincheck(t, mode, seed)
		}
	}
}
