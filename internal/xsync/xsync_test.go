package xsync

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestPaddedUint64Basics(t *testing.T) {
	var c PaddedUint64
	if got := c.Load(); got != 0 {
		t.Fatalf("zero value Load = %d, want 0", got)
	}
	c.Store(41)
	if got := c.Inc(); got != 42 {
		t.Fatalf("Inc = %d, want 42", got)
	}
	if got := c.Dec(); got != 41 {
		t.Fatalf("Dec = %d, want 41", got)
	}
	if got := c.Add(^uint64(0)); got != 40 {
		t.Fatalf("Add(-1) = %d, want 40", got)
	}
	if !c.CompareAndSwap(40, 7) {
		t.Fatal("CAS(40,7) failed")
	}
	if c.CompareAndSwap(40, 9) {
		t.Fatal("CAS(40,9) succeeded unexpectedly")
	}
	if got := c.Load(); got != 7 {
		t.Fatalf("final Load = %d, want 7", got)
	}
}

func TestPaddedUint64Size(t *testing.T) {
	// The counter must span at least two full cache lines of padding plus
	// the value, so adjacent counters in an array never share a line.
	if sz := unsafe.Sizeof(PaddedUint64{}); sz < 2*CacheLineSize+8 {
		t.Fatalf("PaddedUint64 size = %d, want >= %d", sz, 2*CacheLineSize+8)
	}
	if sz := unsafe.Sizeof(PaddedInt64{}); sz < 2*CacheLineSize+8 {
		t.Fatalf("PaddedInt64 size = %d, want >= %d", sz, 2*CacheLineSize+8)
	}
}

func TestPaddedUint64Concurrent(t *testing.T) {
	var c PaddedUint64
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*perWorker {
		t.Fatalf("Load = %d, want %d", got, workers*perWorker)
	}
}

func TestPaddedInt64(t *testing.T) {
	var c PaddedInt64
	c.Store(-5)
	if got := c.Add(3); got != -2 {
		t.Fatalf("Add = %d, want -2", got)
	}
	if got := c.Load(); got != -2 {
		t.Fatalf("Load = %d, want -2", got)
	}
}

func TestStripedCounterRoundsUp(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16},
	} {
		c := NewStripedCounter(tc.in)
		if got := len(c.stripes); got != tc.want {
			t.Errorf("NewStripedCounter(%d) stripes = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestStripedCounterSum(t *testing.T) {
	c := NewStripedCounter(4)
	for key := 0; key < 16; key++ {
		c.Add(key, uint64(key))
	}
	want := uint64(16 * 15 / 2)
	if got := c.Sum(); got != want {
		t.Fatalf("Sum = %d, want %d", got, want)
	}
	c.Reset()
	if got := c.Sum(); got != 0 {
		t.Fatalf("Sum after Reset = %d, want 0", got)
	}
}

func TestStripedCounterConcurrent(t *testing.T) {
	c := NewStripedCounter(8)
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(key int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc(key)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Sum(); got != workers*perWorker {
		t.Fatalf("Sum = %d, want %d", got, workers*perWorker)
	}
}

// Property: for any sequence of increments distributed over arbitrary keys,
// Sum equals the number of increments (stripes only shard, never lose).
func TestStripedCounterProperty(t *testing.T) {
	f := func(keys []uint8) bool {
		c := NewStripedCounter(4)
		for _, k := range keys {
			c.Inc(int(k))
		}
		return c.Sum() == uint64(len(keys))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpoDeterministicAndBounded(t *testing.T) {
	a := Expo{Base: time.Millisecond, Max: 16 * time.Millisecond, Seed: 7}
	b := Expo{Base: time.Millisecond, Max: 16 * time.Millisecond, Seed: 7}
	ceiling := time.Millisecond
	for i := 0; i < 32; i++ {
		da, db := a.Next(), b.Next()
		if da != db {
			t.Fatalf("step %d: same seed diverged: %v vs %v", i, da, db)
		}
		if da < ceiling/2 || da >= ceiling {
			t.Fatalf("step %d: %v outside [%v, %v)", i, da, ceiling/2, ceiling)
		}
		if ceiling < 16*time.Millisecond {
			ceiling *= 2
		}
	}
	// A different seed gives a different jitter stream.
	c := Expo{Base: time.Millisecond, Max: 16 * time.Millisecond, Seed: 8}
	same := true
	a = Expo{Base: time.Millisecond, Max: 16 * time.Millisecond, Seed: 7}
	for i := 0; i < 8; i++ {
		if a.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestExpoZeroValue(t *testing.T) {
	var e Expo
	for i := 0; i < 20; i++ {
		d := e.Next()
		if d <= 0 || d > 100*time.Millisecond {
			t.Fatalf("zero-value Next = %v", d)
		}
	}
	e.Reset()
	if d := e.Next(); d >= time.Millisecond {
		t.Fatalf("after Reset, Next = %v, want < base", d)
	}
}
