package core

import (
	"flag"
	"fmt"
	"sync"
	"testing"
	"time"

	"rcuarray/internal/check"
	"rcuarray/internal/locale"
)

// lincheckSeed replays a single seed and dumps its history:
//
//	go test -run Lincheck ./internal/core -seed N
var lincheckSeed = flag.Uint64("seed", 0, "replay one lincheck seed and dump its history")

// withBoundTasks parks n driver tasks on the cluster and hands them to fn.
// Each task's participant stays registered for fn's whole duration; the
// check.Driver pumps then execute ops against them one at a time, which is
// all the serialization participants require.
func withBoundTasks(c *locale.Cluster, n int, fn func(tasks []*locale.Task)) {
	tasks := make([]*locale.Task, n)
	release := make(chan struct{})
	var ready, done sync.WaitGroup
	ready.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			c.Run(func(tt *locale.Task) {
				tasks[i] = tt
				ready.Done()
				<-release
			})
		}(i)
	}
	ready.Wait()
	defer done.Wait()
	defer close(release)
	fn(tasks)
}

// arrayTarget binds one driver task to the array under test.
type arrayTarget struct {
	a *Array[int64]
	t *locale.Task
}

func (x arrayTarget) Load(idx int) int64     { return x.a.Load(x.t, idx) }
func (x arrayTarget) Store(idx int, v int64) { x.a.Store(x.t, idx, v) }
func (x arrayTarget) GrowBlocks(n int)       { x.a.Grow(x.t, n*x.a.BlockSize()) }
func (x arrayTarget) ShrinkBlocks(n int)     { x.a.Shrink(x.t, n*x.a.BlockSize()) }
func (x arrayTarget) Len() int               { return x.a.Len(x.t) }
func (x arrayTarget) Checkpoint()            { x.t.Checkpoint() }

func clusterLiveBlocks(c *locale.Cluster) int64 {
	var live int64
	for i := 0; i < c.NumLocales(); i++ {
		live += c.Locale(i).MemStats().Live()
	}
	return live
}

const lincheckBlockSize = 8

// runLincheckHistory records one seeded adversarial history against a fresh
// array and returns it. The array is destroyed and fully drained before
// returning, so the per-history leak audit holds.
func runLincheckHistory(t *testing.T, c *locale.Cluster, v Variant, seed uint64, hooks *Hooks) *check.History {
	t.Helper()
	const ntasks = 3
	var h *check.History
	withBoundTasks(c, ntasks, func(lts []*locale.Task) {
		a := New[int64](lts[0], Options{BlockSize: lincheckBlockSize, Variant: v, Hooks: hooks})
		d := check.NewDriver("core/"+v.String(), seed, ntasks)
		targets := make([]check.ArrayTarget, ntasks)
		for k := range targets {
			targets[k] = arrayTarget{a: a, t: lts[k]}
		}
		h = check.GenArrayHistory(d, targets, check.GenConfig{
			BlockSize: lincheckBlockSize,
			Steps:     40,
			Shrink:    true,
		})
		d.Close()
		a.Destroy(lts[0])
		for i := 0; i < 1000 && clusterLiveBlocks(c) != 0; i++ {
			for _, tt := range lts {
				tt.Checkpoint()
			}
		}
		if live := clusterLiveBlocks(c); live != 0 {
			t.Fatalf("seed %d: %d blocks leaked after Destroy+drain", seed, live)
		}
	})
	return h
}

func runLincheckSuite(t *testing.T, v Variant) {
	c := locale.NewCluster(locale.Config{Locales: 2, WorkersPerLocale: 2})
	defer c.Shutdown()

	if *lincheckSeed != 0 {
		h := runLincheckHistory(t, c, v, *lincheckSeed, nil)
		rep := check.CheckArray(h)
		t.Logf("replayed seed %d (%s):\n%s", *lincheckSeed, rep, h.EncodeString())
		if !rep.Ok {
			t.Fatalf("seed %d: %v", *lincheckSeed, rep)
		}
		return
	}

	histories := 220
	if testing.Short() {
		histories = 30
	}
	base := uint64(1000 * (int(v) + 1))
	for i := 0; i < histories; i++ {
		seed := base + uint64(i)
		h := runLincheckHistory(t, c, v, seed, nil)
		rep := check.CheckArray(h)
		if rep.Inconclusive > 0 {
			t.Fatalf("seed %d: %d partitions inconclusive (budget too small for the generator?)", seed, rep.Inconclusive)
		}
		if !rep.Ok {
			t.Fatalf("lincheck failure, replay with: go test -run Lincheck ./internal/core -seed %d\n%v\nhistory:\n%s",
				seed, rep, h.EncodeString())
		}
	}
}

// TestLincheckEBRArray and TestLincheckQSBRArray are the tier-1
// linearizability suites: hundreds of seeded adversarial histories per
// variant, each recorded deterministically and checked against the
// sequential resizable-array model.
func TestLincheckEBRArray(t *testing.T)  { runLincheckSuite(t, VariantEBR) }
func TestLincheckQSBRArray(t *testing.T) { runLincheckSuite(t, VariantQSBR) }

// TestLincheckReplayByteForByte pins the determinism contract on the real
// array: one seed, two runs, identical encodings.
func TestLincheckReplayByteForByte(t *testing.T) {
	for _, v := range []Variant{VariantEBR, VariantQSBR} {
		c := locale.NewCluster(locale.Config{Locales: 2, WorkersPerLocale: 2})
		a := runLincheckHistory(t, c, v, 77, nil).EncodeString()
		b := runLincheckHistory(t, c, v, 77, nil).EncodeString()
		c.Shutdown()
		if a != b {
			t.Fatalf("%s: seed 77 not reproducible:\n%s\nvs\n%s", v, a, b)
		}
	}
}

// TestLincheckRejectsDroppedWriteDuringGrow is the negative control from
// the acceptance criteria: a wrapper that drops a write while a Grow is in
// flight must be rejected by the checker, and the failing history must
// replay identically.
func TestLincheckRejectsDroppedWriteDuringGrow(t *testing.T) {
	run := func() (check.Report, string) {
		c := locale.NewCluster(locale.Config{Locales: 2, WorkersPerLocale: 2})
		defer c.Shutdown()
		var rep check.Report
		var enc string
		withBoundTasks(c, 2, func(lts []*locale.Task) {
			a := New[int64](lts[0], Options{BlockSize: lincheckBlockSize, Variant: VariantEBR})
			d := check.NewDriver("core/droppy", 5, 2)
			defer d.Close()
			h := d.History()
			h.BlockSize = lincheckBlockSize

			tg := []arrayTarget{{a, lts[0]}, {a, lts[1]}}
			dropping := false
			store := func(k int) func(op *check.Op) {
				return func(op *check.Op) {
					if dropping {
						return // the bug: acknowledged but dropped
					}
					tg[k].Store(op.Idx, op.Arg)
				}
			}

			d.Do(0, check.Op{Kind: check.KindGrow, Idx: 2}, func(op *check.Op) { tg[0].GrowBlocks(op.Idx) })
			d.Do(1, check.Op{Kind: check.KindStore, Idx: 3, Arg: 7}, store(1))
			dropping = true
			d.Begin(0, check.Op{Kind: check.KindGrow, Idx: 1}, func(op *check.Op) { tg[0].GrowBlocks(op.Idx) })
			d.Begin(1, check.Op{Kind: check.KindStore, Idx: 3, Arg: 8}, store(1))
			d.Await(1)
			d.Await(0)
			dropping = false
			d.Do(1, check.Op{Kind: check.KindLoad, Idx: 3}, func(op *check.Op) { op.Out = tg[1].Load(op.Idx) })

			rep = check.CheckArray(h)
			enc = h.EncodeString()
			a.Destroy(lts[0])
		})
		return rep, enc
	}
	rep1, enc1 := run()
	rep2, enc2 := run()
	if rep1.Ok {
		t.Fatalf("checker accepted an array that drops writes during Grow:\n%s", enc1)
	}
	if len(rep1.Failures) == 0 || rep1.Failures[0].Partition != "elem[3]" {
		t.Fatalf("failure not attributed to the dropped element: %v", rep1)
	}
	if enc1 != enc2 || rep2.Ok {
		t.Fatal("negative history does not replay byte-for-byte")
	}
}

// TestLincheckMidInstallRegionRead parks a boundary-straddling Grow at
// PointInstallRegionFlipped — the extended region table is published on
// every locale, the wider directory is not — and drives reads, stores, and
// Len from the other tasks through the window. They must observe a fully
// consistent pre-install view (old capacity, old values readable, new
// stores durable), and the resumed install must expose the new capacity
// with all window-time stores intact. The history is then checked.
func TestLincheckMidInstallRegionRead(t *testing.T) {
	for _, v := range []Variant{VariantEBR, VariantQSBR} {
		t.Run(v.String(), func(t *testing.T) {
			c := locale.NewCluster(locale.Config{Locales: 2, WorkersPerLocale: 2})
			defer c.Shutdown()
			withBoundTasks(c, 3, func(lts []*locale.Task) {
				d := check.NewDriver("core/mid-install-"+v.String(), 21, 3)
				defer d.Close()
				hooks := &Hooks{Yield: func(p Point) { d.YieldPoint(string(p)) }}
				a := New[int64](lts[0], Options{BlockSize: lincheckBlockSize, Variant: v, Hooks: hooks})
				tg := []arrayTarget{{a, lts[0]}, {a, lts[1]}, {a, lts[2]}}

				// One block committed and populated; the next grow straddles
				// the region boundary (1 % region.DefaultBlocks != 0).
				d.Do(1, check.Op{Kind: check.KindGrow, Idx: 1}, func(op *check.Op) { tg[1].GrowBlocks(op.Idx) })
				d.Do(1, check.Op{Kind: check.KindStore, Idx: 3, Arg: 7}, func(op *check.Op) { tg[1].Store(op.Idx, op.Arg) })

				d.Arm()
				d.Begin(0, check.Op{Kind: check.KindGrow, Idx: 1}, func(op *check.Op) { tg[0].GrowBlocks(op.Idx) })
				if pt := d.WaitYield(0); pt != string(PointInstallRegionFlipped) {
					t.Fatalf("grow parked at %q, want %q", pt, PointInstallRegionFlipped)
				}

				// Mid-install window: the view is the old one, consistently.
				if n := tg[1].Len(); n != lincheckBlockSize {
					t.Fatalf("Len mid-install = %d, want %d (old capacity)", n, lincheckBlockSize)
				}
				d.Do(1, check.Op{Kind: check.KindLoad, Idx: 3}, func(op *check.Op) { op.Out = tg[1].Load(op.Idx) })
				d.Do(2, check.Op{Kind: check.KindStore, Idx: 5, Arg: 11}, func(op *check.Op) { tg[2].Store(op.Idx, op.Arg) })
				d.Do(2, check.Op{Kind: check.KindLoad, Idx: 5}, func(op *check.Op) { op.Out = tg[2].Load(op.Idx) })

				d.Resume()
				grow := d.Await(0)
				if grow.Panic != "" {
					t.Fatalf("parked grow panicked: %s", grow.Panic)
				}
				if n := tg[1].Len(); n != 2*lincheckBlockSize {
					t.Fatalf("Len after install = %d, want %d", n, 2*lincheckBlockSize)
				}
				// Window-time stores survived the install; the new block is
				// addressable.
				d.Do(1, check.Op{Kind: check.KindLoad, Idx: 5}, func(op *check.Op) { op.Out = tg[1].Load(op.Idx) })
				d.Do(2, check.Op{Kind: check.KindStore, Idx: lincheckBlockSize + 1, Arg: 13},
					func(op *check.Op) { tg[2].Store(op.Idx, op.Arg) })
				d.Do(1, check.Op{Kind: check.KindLoad, Idx: lincheckBlockSize + 1},
					func(op *check.Op) { op.Out = tg[1].Load(op.Idx) })

				h := d.History()
				h.BlockSize = lincheckBlockSize
				if rep := check.CheckArray(h); !rep.Ok {
					t.Fatalf("mid-install history rejected: %v\n%s", rep, h.EncodeString())
				}
				a.Destroy(lts[0])
			})
		})
	}
}

// TestLincheckRejectsTornRegionView is the negative control for the
// per-region install: a buggy client layer that caches element values and
// fails to refresh one region's cache across an install serves a torn
// cross-region view — element in region 0 fresh, element in region 1 stale.
// The checker must reject the history, attribute the failure to the stale
// region's element, and the failing history must replay byte-for-byte.
func TestLincheckRejectsTornRegionView(t *testing.T) {
	const rb = 1 // one block per region: indexes 0..7 in region 0, 8..15 in region 1
	run := func() (check.Report, string) {
		c := locale.NewCluster(locale.Config{Locales: 2, WorkersPerLocale: 2})
		defer c.Shutdown()
		var rep check.Report
		var enc string
		withBoundTasks(c, 2, func(lts []*locale.Task) {
			a := New[int64](lts[0], Options{BlockSize: lincheckBlockSize, Variant: VariantEBR, RegionBlocks: rb})
			d := check.NewDriver("core/torn-region", 9, 2)
			defer d.Close()
			h := d.History()
			h.BlockSize = lincheckBlockSize

			tg := []arrayTarget{{a, lts[0]}, {a, lts[1]}}
			const r0, r1 = 3, lincheckBlockSize + 3 // one index per region
			cache := map[int]int64{}
			tornRead := func(k, idx int) func(op *check.Op) {
				return func(op *check.Op) {
					if v, ok := cache[idx]; ok {
						op.Out = v // the bug: region-1 reads served from the stale cache
						return
					}
					op.Out = tg[k].Load(op.Idx)
				}
			}

			d.Do(0, check.Op{Kind: check.KindGrow, Idx: 2}, func(op *check.Op) { tg[0].GrowBlocks(op.Idx) })
			// Prime the buggy cache for region 1 only, pre-install values.
			cache[r1] = tg[1].Load(r1)
			// Both stores complete — a later read must see both.
			d.Do(0, check.Op{Kind: check.KindStore, Idx: r0, Arg: 1}, func(op *check.Op) { tg[0].Store(op.Idx, op.Arg) })
			d.Do(0, check.Op{Kind: check.KindStore, Idx: r1, Arg: 2}, func(op *check.Op) { tg[0].Store(op.Idx, op.Arg) })
			// The torn view: same reader, region 0 fresh, region 1 stale.
			d.Do(1, check.Op{Kind: check.KindLoad, Idx: r0}, tornRead(1, r0))
			d.Do(1, check.Op{Kind: check.KindLoad, Idx: r1}, tornRead(1, r1))

			rep = check.CheckArray(h)
			enc = h.EncodeString()
			a.Destroy(lts[0])
		})
		return rep, enc
	}
	rep1, enc1 := run()
	rep2, enc2 := run()
	if rep1.Ok {
		t.Fatalf("checker accepted a torn cross-region view:\n%s", enc1)
	}
	if len(rep1.Failures) == 0 || rep1.Failures[0].Partition != fmt.Sprintf("elem[%d]", lincheckBlockSize+3) {
		t.Fatalf("failure not attributed to the stale region's element: %v", rep1)
	}
	if enc1 != enc2 || rep2.Ok {
		t.Fatal("torn-view history does not replay byte-for-byte")
	}
}

// TestLincheckQSBRReclaimWindow parks a reader inside Index's hazard window
// (snapshot loaded, not yet dereferenced) and storms resizes plus
// checkpoints on every other task. QSBR must withhold every snapshot
// retirement — the parked reader's participant has not checkpointed — so
// the resumed read completes on live metadata with the correct value.
func TestLincheckQSBRReclaimWindow(t *testing.T) {
	c := locale.NewCluster(locale.Config{Locales: 1, WorkersPerLocale: 2})
	defer c.Shutdown()
	withBoundTasks(c, 3, func(lts []*locale.Task) {
		d := check.NewDriver("core/qsbr-window", 11, 3)
		defer d.Close()
		hooks := &Hooks{Yield: func(p Point) { d.YieldPoint(string(p)) }}
		a := New[int64](lts[0], Options{BlockSize: lincheckBlockSize, Variant: VariantQSBR, Hooks: hooks})
		tg := []arrayTarget{{a, lts[0]}, {a, lts[1]}, {a, lts[2]}}

		d.Do(1, check.Op{Kind: check.KindGrow, Idx: 2}, func(op *check.Op) { tg[1].GrowBlocks(op.Idx) })
		d.Do(1, check.Op{Kind: check.KindStore, Idx: 0, Arg: 42}, func(op *check.Op) { tg[1].Store(op.Idx, op.Arg) })

		defersBefore := c.QSBR().Defers() - c.QSBR().Reclaimed()
		d.Arm()
		d.Begin(0, check.Op{Kind: check.KindLoad, Idx: 0}, func(op *check.Op) { op.Out = tg[0].Load(op.Idx) })
		if pt := d.WaitYield(0); pt != string(PointIndexSnapLoaded) {
			t.Fatalf("parked at %q, want %q", pt, PointIndexSnapLoaded)
		}

		// Resize storm: every Grow retires a snapshot per locale, and the
		// other tasks checkpoint eagerly. None of it may reclaim the
		// snapshot the parked reader holds.
		for i := 0; i < 4; i++ {
			d.Do(1, check.Op{Kind: check.KindGrow, Idx: 1}, func(op *check.Op) { tg[1].GrowBlocks(op.Idx) })
			d.Do(1, check.Op{Kind: check.KindCkpt}, func(*check.Op) { tg[1].Checkpoint() })
			d.Do(2, check.Op{Kind: check.KindCkpt}, func(*check.Op) { tg[2].Checkpoint() })
		}
		pending := c.QSBR().Defers() - c.QSBR().Reclaimed()
		if pending <= defersBefore {
			t.Fatalf("no deferrals pending (%d) while a reader starves checkpoints — QSBR reclaimed early?", pending)
		}

		d.Resume()
		got := d.Await(0)
		if got.Panic != "" {
			t.Fatalf("parked reader tripped use-after-free: %s", got.Panic)
		}
		if got.Out != 42 {
			t.Fatalf("parked reader read %d, want 42", got.Out)
		}

		a.Destroy(lts[0])
		for i := 0; i < 1000 && clusterLiveBlocks(c) != 0; i++ {
			for _, tt := range lts {
				tt.Checkpoint()
			}
		}
		if live := clusterLiveBlocks(c); live != 0 {
			t.Fatalf("%d blocks leaked after the window test", live)
		}
	})
}

// TestLincheckEBRGrowWaitsForReader parks an EBR reader mid-critical-
// section (guard held, snapshot loaded) and starts a Grow concurrently. The
// Grow's Synchronize must block until the reader exits — the deterministic
// version of the paper's reader-protection argument.
func TestLincheckEBRGrowWaitsForReader(t *testing.T) {
	c := locale.NewCluster(locale.Config{Locales: 1, WorkersPerLocale: 2})
	defer c.Shutdown()
	withBoundTasks(c, 2, func(lts []*locale.Task) {
		d := check.NewDriver("core/ebr-window", 13, 2)
		defer d.Close()
		hooks := &Hooks{Yield: func(p Point) { d.YieldPoint(string(p)) }}
		a := New[int64](lts[0], Options{BlockSize: lincheckBlockSize, Variant: VariantEBR, Hooks: hooks})
		tg := []arrayTarget{{a, lts[0]}, {a, lts[1]}}

		d.Do(1, check.Op{Kind: check.KindGrow, Idx: 1}, func(op *check.Op) { tg[1].GrowBlocks(op.Idx) })
		d.Do(1, check.Op{Kind: check.KindStore, Idx: 2, Arg: 7}, func(op *check.Op) { tg[1].Store(op.Idx, op.Arg) })

		d.Arm()
		d.Begin(0, check.Op{Kind: check.KindLoad, Idx: 2}, func(op *check.Op) { op.Out = tg[0].Load(op.Idx) })
		d.WaitYield(0)

		// Grow concurrently: it must stall in Synchronize behind the
		// parked reader's guard.
		d.Begin(1, check.Op{Kind: check.KindGrow, Idx: 1}, func(op *check.Op) { tg[1].GrowBlocks(op.Idx) })
		if !d.StillRunning(1, 5*time.Millisecond) {
			t.Fatal("Grow completed while an EBR reader was mid-critical-section")
		}

		d.Resume()
		got := d.Await(0)
		if got.Panic != "" || got.Out != 7 {
			t.Fatalf("parked EBR reader returned (%d, panic=%q), want (7, none)", got.Out, got.Panic)
		}
		grow := d.Await(1)
		if grow.Panic != "" {
			t.Fatalf("Grow panicked after reader exit: %s", grow.Panic)
		}
		if n := tg[0].Len(); n != 2*lincheckBlockSize {
			t.Fatalf("capacity %d after window, want %d", n, 2*lincheckBlockSize)
		}
		rep := check.CheckArray(func() *check.History {
			h := d.History()
			h.BlockSize = lincheckBlockSize
			return h
		}())
		if !rep.Ok {
			t.Fatalf("window history rejected: %v", rep)
		}
		a.Destroy(lts[0])
	})
}
