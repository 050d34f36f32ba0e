package core

// Tests for the two-level directory + region-table metadata introduced with
// the incremental per-region install: directory shape, region-table
// lifecycle, the deterministic region-event stream, and the striped and flat
// EBR layouts wired through a real array.

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"rcuarray/internal/locale"
)

// The directory's region count tracks ceil(nBlocks/RegionBlocks) across a
// sequence of grows and shrinks that repeatedly straddle region boundaries,
// and every element stays addressable with its stored value.
func TestRegionDirectoryShape(t *testing.T) {
	bothVariants(t, func(t *testing.T, v Variant) {
		c := newTestCluster(t, 2, 2)
		c.Run(func(task *locale.Task) {
			const bs, rb = 4, 2
			a := New[int](task, Options{BlockSize: bs, Variant: v, RegionBlocks: rb})
			if got := a.RegionBlocks(); got != rb {
				t.Fatalf("RegionBlocks = %d, want %d", got, rb)
			}
			if got := a.Regions(task); got != 0 {
				t.Fatalf("empty array has %d regions, want 0", got)
			}
			// Odd growth pattern: 1, 2, 3, ... blocks, crossing the
			// 2-block region boundary at every step parity.
			blocks := 0
			for step := 1; step <= 5; step++ {
				a.Grow(task, step*bs)
				blocks += step
				want := (blocks + rb - 1) / rb
				if got := a.Regions(task); got != want {
					t.Fatalf("after %d blocks: %d regions, want %d", blocks, got, want)
				}
				if got := a.Len(task); got != blocks*bs {
					t.Fatalf("after %d blocks: Len %d, want %d", blocks, got, blocks*bs)
				}
			}
			for i := 0; i < blocks*bs; i++ {
				a.Store(task, i, i*3)
			}
			for i := 0; i < blocks*bs; i++ {
				if got := a.Load(task, i); got != i*3 {
					t.Fatalf("a[%d] = %d, want %d", i, got, i*3)
				}
			}
			// Shrink back down through the same boundaries.
			for blocks > 1 {
				a.Shrink(task, bs)
				blocks--
				if v == VariantQSBR {
					task.Checkpoint()
				}
				want := (blocks + rb - 1) / rb
				if got := a.Regions(task); got != want {
					t.Fatalf("after shrink to %d blocks: %d regions, want %d", blocks, got, want)
				}
				for i := 0; i < blocks*bs; i++ {
					if got := a.Load(task, i); got != i*3 {
						t.Fatalf("post-shrink a[%d] = %d, want %d", i, got, i*3)
					}
				}
			}
		})
	})
}

// Region tables are reclaimed, not leaked: across a grow/shrink churn the
// live region-table count per locale settles to exactly the directory's
// region count, and Destroy drains it to zero.
func TestRegionTableLifecycle(t *testing.T) {
	bothVariants(t, func(t *testing.T, v Variant) {
		c := newTestCluster(t, 2, 2)
		c.Run(func(task *locale.Task) {
			const bs, rb = 4, 2
			a := New[int](task, Options{BlockSize: bs, Variant: v, RegionBlocks: rb})
			drain := func() {
				if v == VariantQSBR {
					for i := 0; i < 4; i++ {
						task.Coforall(func(sub *locale.Task) { sub.Checkpoint() })
					}
				}
			}
			for cycle := 0; cycle < 6; cycle++ {
				a.Grow(task, 3*bs) // 3 blocks: always leaves a partial region
				drain()
				a.Shrink(task, 2*bs)
				drain()
			}
			// 6 cycles x net +1 block = 6 blocks = 3 regions of 2.
			wantRegions := int64(3)
			for loc := 0; loc < c.NumLocales(); loc++ {
				live, liveMax := a.RegionLive(c, loc)
				if live != wantRegions {
					t.Errorf("locale %d: %d live region tables, want %d", loc, live, wantRegions)
				}
				if liveMax < live {
					t.Errorf("locale %d: liveMax %d < live %d", loc, liveMax, live)
				}
			}
			a.Destroy(task)
			drain()
			for loc := 0; loc < c.NumLocales(); loc++ {
				if live, _ := a.RegionLive(c, loc); live != 0 {
					t.Errorf("locale %d: %d region tables leaked after Destroy", loc, live)
				}
			}
		})
	})
}

// A boundary-straddling grow publishes the extended boundary table before
// the wider directory; a reader holding the *old* directory meanwhile stays
// inside the old capacity bound, so the flip is invisible until the
// directory lands (consistent region views, the tentpole's safety claim).
func TestRegionFlipInvisibleUntilDirPublish(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	c.Run(func(task *locale.Task) {
		const bs, rb = 4, 4
		var maxLenInWindow atomic.Int64
		a := New[int](task, Options{BlockSize: bs, Variant: VariantEBR, RegionBlocks: rb, InitialCapacity: bs})
		// From another worker, sample Len continuously while a grow runs.
		stop := make(chan struct{})
		done := make(chan struct{})
		go c.Run(func(rt *locale.Task) {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := int64(a.Len(rt)); n > maxLenInWindow.Load() {
					maxLenInWindow.Store(n)
				}
			}
		})
		for g := 0; g < 3; g++ {
			a.Grow(task, bs) // flips region 0 each time (1..3 blocks mod 4)
		}
		close(stop)
		<-done
		if got := a.Len(task); got != 4*bs {
			t.Fatalf("final Len = %d, want %d", got, 4*bs)
		}
		// The sampler may land on any published capacity — a whole number
		// of blocks up to the final bound — but never on a flipped-but-
		// unpublished boundary extension past it.
		if m := maxLenInWindow.Load(); m > int64(4*bs) || m%int64(bs) != 0 {
			t.Fatalf("observed capacity %d during grows, want a multiple of %d at most %d", m, bs, 4*bs)
		}
	})
}

// formatRegionEvents renders an event stream one line per event, the shape
// the seed-replay test compares byte-for-byte.
func formatRegionEvents(evs []RegionEvent) string {
	var b strings.Builder
	for _, e := range evs {
		fmt.Fprintf(&b, "%s/%s region=%d nblocks=%d\n", e.Op, e.Kind, e.Region, e.NBlocks)
	}
	return b.String()
}

// The region-event stream of a fixed resize sequence is deterministic:
// identical, byte for byte, across two independent runs — and matches the
// protocol ordering (every grow's flip precedes its dir publication; every
// shrink publishes its dir before its retire batch).
func TestRegionEventStreamSeedReplay(t *testing.T) {
	run := func() string {
		c := locale.NewCluster(locale.Config{Locales: 2, WorkersPerLocale: 2})
		defer c.Shutdown()
		var evs []RegionEvent
		c.Run(func(task *locale.Task) {
			const bs, rb = 4, 2
			hooks := &Hooks{Region: func(ev RegionEvent) { evs = append(evs, ev) }}
			a := New[int](task, Options{BlockSize: bs, Variant: VariantEBR, RegionBlocks: rb, Hooks: hooks})
			for _, g := range []int{1, 2, 3, 1} { // blocks; straddles boundaries both ways
				a.Grow(task, g*bs)
			}
			a.Shrink(task, 3*bs)
			a.Destroy(task)
		})
		return formatRegionEvents(evs)
	}
	got := run()
	want := strings.Join([]string{
		"grow/dir region=1 nblocks=1",            // 0 -> 1 block: aligned start, dir only
		"grow/flip region=0 nblocks=1",           // 1 -> 3: fill region 0 to its boundary first,
		"grow/dir region=2 nblocks=3",            //   then publish the 2-region directory
		"grow/flip region=1 nblocks=3",           // 3 -> 6: fill region 1 first,
		"grow/dir region=3 nblocks=6",            //   then the 3-region directory
		"grow/dir region=4 nblocks=7",            // 6 -> 7: aligned, dir only
		"shrink/dir region=2 nblocks=4",          // 7 -> 4 blocks, aligned keep
		"shrink/retire-batch region=2 nblocks=4", // regions 2 and 3 retired together
		"destroy/retire-batch region=0 nblocks=0",
	}, "\n") + "\n"
	if got != want {
		t.Fatalf("region event stream:\n%s\nwant:\n%s", got, want)
	}
	if again := run(); again != got {
		t.Fatalf("region event stream not reproducible:\n%s\nvs\n%s", got, again)
	}
}

// The default striped per-locale domains end to end: a real array on a
// 4x2 cluster serves concurrent reads under 8 grows and 4 shrinks, and its
// grace periods run through the locales' own domains.
func TestStripedEBRArrayEndToEnd(t *testing.T) {
	c := newTestCluster(t, 4, 2)
	c.Run(func(task *locale.Task) {
		const bs = 8
		a := New[int64](task, Options{BlockSize: bs, Variant: VariantEBR, InitialCapacity: 4 * bs})
		if got := domainStripes(a, c); fmt.Sprint(got) != "[2 2 2 2]" {
			t.Fatalf("per-locale stripes = %v, want 2 (WorkersPerLocale) on each of 4 locales", got)
		}
		// Seed the stable prefix — the shrinks below never remove it, so
		// the concurrent readers stay clear of legitimately-poisoned tail
		// blocks.
		for i := 0; i < 4; i++ {
			a.Store(task, i*bs, int64(i*bs))
		}

		var stop atomic.Bool
		var bad atomic.Int64
		done := make(chan struct{})
		go c.Run(func(rt *locale.Task) {
			defer close(done)
			rt.Coforall(func(sub *locale.Task) {
				for !stop.Load() {
					for i := 0; i < 4*bs; i += bs {
						if v := a.Load(sub, i); v != int64(i) {
							bad.Add(1)
							return
						}
					}
				}
			})
		})

		for g := 0; g < 8; g++ {
			a.Grow(task, bs)
			a.Store(task, (4+g)*bs, int64((4+g)*bs))
		}
		for s := 0; s < 4; s++ {
			a.Shrink(task, bs)
		}
		stop.Store(true)
		<-done
		if bad.Load() != 0 {
			t.Fatalf("%d corrupt reads under concurrent resizes", bad.Load())
		}
		if got := a.Len(task); got != 8*bs {
			t.Fatalf("Len = %d, want %d", got, 8*bs)
		}
		_, syncs := a.EBRStats(c)
		if syncs == 0 {
			t.Fatal("no Synchronize recorded on the per-locale domains")
		}
	})
}

// domainStripes returns each locale's EBR reader-stripe count, by locale id.
func domainStripes[T any](a *Array[T], c *locale.Cluster) []int {
	out := make([]int, c.NumLocales())
	locale.EachPrivatized[*instance[T]](c, a.pid, func(l *locale.Locale, inst *instance[T]) {
		out[l.ID()] = inst.dom.Stripes()
	})
	return out
}

// The default striped domains and FlatEBR (the paper's two-counter layout)
// agree on a seeded deterministic workload: same final contents and the
// same capacities.
func TestStripedFlatArrayEquivalence(t *testing.T) {
	type arm struct {
		name    string
		opts    Options
		stripes string
	}
	const bs = 4
	arms := []arm{
		{"striped", Options{BlockSize: bs, Variant: VariantEBR}, "[2 2]"},
		{"flat", Options{BlockSize: bs, Variant: VariantEBR, FlatEBR: true}, "[1 1]"},
	}
	results := make(map[string]string)
	for _, ar := range arms {
		c := newTestCluster(t, 2, 2)
		var log strings.Builder
		c.Run(func(task *locale.Task) {
			a := New[int](task, ar.opts)
			if got := fmt.Sprint(domainStripes(a, c)); got != ar.stripes {
				t.Fatalf("%s arm: per-locale stripes = %s, want %s", ar.name, got, ar.stripes)
			}
			rng := uint64(0x9E3779B97F4A7C15)
			next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
			for step := 0; step < 60; step++ {
				switch n := a.Len(task); {
				case n == 0 || next()%4 == 0:
					a.Grow(task, bs)
				case next()%8 == 0 && n > bs:
					a.Shrink(task, bs)
				default:
					a.Store(task, int(next()%uint64(n)), step)
				}
			}
			n := a.Len(task)
			fmt.Fprintf(&log, "len=%d\n", n)
			for i := 0; i < n; i++ {
				fmt.Fprintf(&log, "%d,", a.Load(task, i))
			}
		})
		c.Shutdown()
		results[ar.name] = log.String()
	}
	if results["striped"] != results["flat"] {
		t.Fatalf("striped/flat arrays diverged on the seeded workload:\nstriped: %s\nflat: %s",
			results["striped"], results["flat"])
	}
}
