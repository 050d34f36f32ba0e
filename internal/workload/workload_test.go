package workload

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(8)
	same := 0
	a = NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different-seed RNGs coincided %d/100 times", same)
	}
}

func TestIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestPatternString(t *testing.T) {
	for _, c := range []struct {
		p    Pattern
		want string
	}{
		{Random, "random"}, {Sequential, "sequential"}, {Zipfian, "zipfian"}, {Pattern(9), "Pattern(9)"},
	} {
		if got := c.p.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int(c.p), got, c.want)
		}
	}
}

func TestSequentialWrapsAndCovers(t *testing.T) {
	s := NewIndexStream(Sequential, 42, 10)
	seen := make(map[int]int)
	for i := 0; i < 20; i++ { // two full laps
		seen[s.Next()]++
	}
	for i := 0; i < 10; i++ {
		if seen[i] != 2 {
			t.Fatalf("index %d visited %d times, want 2", i, seen[i])
		}
	}
}

func TestSequentialDistinctSeedsDistinctOffsets(t *testing.T) {
	offsets := make(map[int]bool)
	for seed := uint64(0); seed < 16; seed++ {
		s := NewIndexStream(Sequential, seed, 1000)
		offsets[s.Next()] = true
	}
	if len(offsets) < 8 {
		t.Fatalf("only %d distinct starting offsets across 16 seeds", len(offsets))
	}
}

func TestRandomStreamInRange(t *testing.T) {
	s := NewIndexStream(Random, 1, 37)
	for i := 0; i < 5000; i++ {
		idx := s.Next()
		if idx < 0 || idx >= 37 {
			t.Fatalf("index %d out of range", idx)
		}
	}
}

func TestRandomStreamRoughlyUniform(t *testing.T) {
	const n, draws = 8, 64000
	s := NewIndexStream(Random, 99, n)
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[s.Next()]++
	}
	want := draws / n
	for i, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Fatalf("bucket %d count %d deviates >20%% from %d", i, c, want)
		}
	}
}

func TestZipfianSkewsLow(t *testing.T) {
	s := NewIndexStream(Zipfian, 5, 1000)
	lowHits := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		idx := s.Next()
		if idx < 0 || idx >= 1000 {
			t.Fatalf("zipf index %d out of range", idx)
		}
		if idx < 10 {
			lowHits++
		}
	}
	// Under uniform sampling, the low decile of 1% would get ~1%; Zipf
	// theta=0.99 concentrates far more. Require a conservative 20%.
	if frac := float64(lowHits) / draws; frac < 0.20 {
		t.Fatalf("zipf low-10 fraction = %.3f, want >= 0.20", frac)
	}
}

func TestSetNRebinds(t *testing.T) {
	for _, p := range []Pattern{Random, Sequential, Zipfian} {
		s := NewIndexStream(p, 2, 10)
		for i := 0; i < 15; i++ {
			s.Next()
		}
		s.SetN(4)
		for i := 0; i < 100; i++ {
			if idx := s.Next(); idx >= 4 {
				t.Fatalf("%v: index %d after SetN(4)", p, idx)
			}
		}
		s.SetN(100)
		sawBig := false
		for i := 0; i < 2000; i++ {
			if s.Next() >= 4 {
				sawBig = true
				break
			}
		}
		if !sawBig {
			t.Fatalf("%v: stream stuck below old bound after SetN(100)", p)
		}
	}
}

func TestStreamValidation(t *testing.T) {
	assertPanics(t, "zero n", func() { NewIndexStream(Random, 0, 0) })
	s := NewIndexStream(Random, 0, 4)
	assertPanics(t, "SetN(0)", func() { s.SetN(0) })
}

func TestStreamsDeterministic(t *testing.T) {
	for _, p := range []Pattern{Random, Sequential, Zipfian} {
		a := NewIndexStream(p, 11, 100)
		b := NewIndexStream(p, 11, 100)
		for i := 0; i < 200; i++ {
			if a.Next() != b.Next() {
				t.Fatalf("%v stream not deterministic", p)
			}
		}
	}
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
