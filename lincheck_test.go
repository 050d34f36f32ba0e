package rcuarray_test

import (
	"sync"
	"testing"

	"rcuarray"
	"rcuarray/internal/check"
)

// pubTarget adapts the public Array API to the generator's target surface.
type pubTarget struct {
	a *rcuarray.Array[int64]
	t *rcuarray.Task
}

func (x pubTarget) Load(idx int) int64     { return x.a.Load(x.t, idx) }
func (x pubTarget) Store(idx int, v int64) { x.a.Store(x.t, idx, v) }
func (x pubTarget) GrowBlocks(n int)       { x.a.Grow(x.t, n*x.a.BlockSize()) }
func (x pubTarget) ShrinkBlocks(n int)     { x.a.Shrink(x.t, n*x.a.BlockSize()) }
func (x pubTarget) Len() int               { return x.a.Len(x.t) }
func (x pubTarget) Checkpoint()            { x.t.Checkpoint() }

// withPublicTasks parks n driver tasks on the cluster for fn's duration, so
// the check.Driver pumps can execute ops against stable task contexts.
func withPublicTasks(c *rcuarray.Cluster, n int, fn func(ts []*rcuarray.Task)) {
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

func publicLiveBlocks(c *rcuarray.Cluster) int64 {
	var live int64
	inner := c.Internal()
	for i := 0; i < inner.NumLocales(); i++ {
		live += inner.Locale(i).MemStats().Live()
	}
	return live
}

// runPublicLincheck records seeded adversarial histories through the public
// API and checks each one, mirroring the internal/core suite one layer up.
func runPublicLincheck(t *testing.T, mode rcuarray.Reclaim) {
	c := rcuarray.NewCluster(rcuarray.ClusterConfig{Locales: 2, TasksPerLocale: 2})
	defer c.Shutdown()
	const ntasks = 3
	const bs = 8

	histories := 60
	if testing.Short() {
		histories = 10
	}
	base := uint64(9000 * (int(mode) + 1))
	for i := 0; i < histories; i++ {
		seed := base + uint64(i)
		withPublicTasks(c, ntasks, func(ts []*rcuarray.Task) {
			a := rcuarray.New[int64](ts[0], rcuarray.Options{BlockSize: bs, Reclaim: mode})
			d := check.NewDriver("rcuarray/"+mode.String(), seed, ntasks)
			targets := make([]check.ArrayTarget, ntasks)
			for k := range targets {
				targets[k] = pubTarget{a: a, t: ts[k]}
			}
			h := check.GenArrayHistory(d, targets, check.GenConfig{
				BlockSize: bs,
				Steps:     30,
				Shrink:    true,
			})
			d.Close()
			if rep := check.CheckArray(h); !rep.Ok || rep.Inconclusive > 0 {
				t.Fatalf("public API lincheck failed, seed %d:\n%v\nhistory:\n%s",
					seed, rep, h.EncodeString())
			}
			a.Destroy(ts[0])
			for k := 0; k < 1000 && publicLiveBlocks(c) != 0; k++ {
				for _, tt := range ts {
					tt.Checkpoint()
				}
			}
			if live := publicLiveBlocks(c); live != 0 {
				t.Fatalf("seed %d: %d blocks leaked after Destroy+drain", seed, live)
			}
		})
	}
}

// TestLincheckPublicEBR and TestLincheckPublicQSBR run the linearizability
// suite against the exported rcuarray surface, so wrapper regressions (not
// just core ones) are caught.
func TestLincheckPublicEBR(t *testing.T)  { runPublicLincheck(t, rcuarray.EBR) }
func TestLincheckPublicQSBR(t *testing.T) { runPublicLincheck(t, rcuarray.QSBR) }
