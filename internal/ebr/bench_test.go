package ebr

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkEnterExit measures the read-side primitive: two collective
// counter RMWs plus the verification load (Algorithm 1 lines 9–17).
func BenchmarkEnterExit(b *testing.B) {
	d := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := d.Enter()
		g.Exit()
	}
}

// BenchmarkAblationVerifyCheck isolates the verification re-check: the
// unverified variant below increments and trusts the epoch (which would be
// unsafe — Algorithm 1's retry exists precisely because the epoch can move
// between load and increment). The delta is the cost of the safety check.
func BenchmarkAblationVerifyCheck(b *testing.B) {
	b.Run("verified", func(b *testing.B) {
		d := New()
		for i := 0; i < b.N; i++ {
			g := d.Enter()
			g.Exit()
		}
	})
	b.Run("unverified-unsafe", func(b *testing.B) {
		d := New()
		for i := 0; i < b.N; i++ {
			epoch := d.globalEpoch.Load()
			idx := epoch & 1
			d.readers[idx][0].Inc()
			// no verification load, no retry loop
			d.readers[idx][0].Dec()
		}
	})
}

// BenchmarkEnterExitContended measures the collective-counter contention
// that dominates the paper's EBR numbers at 44 tasks per locale, flat
// (every reader on one stripe, the paper's layout) against striped (each
// reader on its own slot).
func BenchmarkEnterExitContended(b *testing.B) {
	for _, layout := range []struct {
		name string
		mk   func() *Domain
		slot func(r int) int
	}{
		{"flat", func() *Domain { return NewStriped(1) }, func(int) int { return 0 }},
		{"striped", New, func(r int) int { return r }},
	} {
		for _, readers := range []int{2, 8} {
			readers := readers
			layout := layout
			b.Run(fmt.Sprintf("%s/%dreaders", layout.name, readers), func(b *testing.B) {
				d := layout.mk()
				var wg sync.WaitGroup
				per := b.N / readers
				b.ResetTimer()
				for r := 0; r < readers; r++ {
					wg.Add(1)
					go func(slot int) {
						defer wg.Done()
						for i := 0; i < per; i++ {
							g := d.EnterSlot(slot)
							g.Exit()
						}
					}(layout.slot(r))
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkPinnedTick measures the amortized read-side primitive: one
// Enter/Exit pair per budget window instead of per operation.
func BenchmarkPinnedTick(b *testing.B) {
	d := New()
	p := d.Pin(0, DefaultPinBudget)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Tick()
	}
	b.StopTimer()
	p.Unpin()
}

// BenchmarkSynchronize measures the writer-side epoch advance with no
// readers present (the wait is the uncontended fast path).
func BenchmarkSynchronize(b *testing.B) {
	d := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Synchronize()
	}
}

// BenchmarkReadSection measures the closure-based Read wrapper against the
// guard pair, to justify the guard API on the array's hot path.
func BenchmarkReadSection(b *testing.B) {
	d := New()
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Read(func() { sink++ })
	}
	_ = sink
}
