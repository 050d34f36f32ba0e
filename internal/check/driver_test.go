package check

import (
	"sync"
	"testing"
	"time"
)

// fakeArray is a correct, mutex-guarded resizable array used to validate
// the driver and generator without the real RCUArray underneath.
type fakeArray struct {
	mu   sync.Mutex
	bs   int
	data []int64
}

func (f *fakeArray) Load(idx int) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.data[idx]
}
func (f *fakeArray) Store(idx int, v int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.data[idx] = v
}
func (f *fakeArray) GrowBlocks(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.data = append(f.data, make([]int64, n*f.bs)...)
}
func (f *fakeArray) ShrinkBlocks(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.data = f.data[: len(f.data)-n*f.bs : len(f.data)-n*f.bs]
}
func (f *fakeArray) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.data)
}
func (f *fakeArray) Checkpoint() {}

// droppyArray wraps a target and silently drops stores while dropping is
// set — the canonical buggy array the checker must reject.
type droppyArray struct {
	ArrayTarget
	dropping bool
}

func (d *droppyArray) Store(idx int, v int64) {
	if d.dropping {
		return
	}
	d.ArrayTarget.Store(idx, v)
}

func sameTargets(t ArrayTarget, n int) []ArrayTarget {
	out := make([]ArrayTarget, n)
	for i := range out {
		out[i] = t
	}
	return out
}

func TestDriverStampsAndOverlap(t *testing.T) {
	d := NewDriver("stamps", 1, 2)
	defer d.Close()
	f := &fakeArray{bs: 4}

	d.Do(0, Op{Kind: KindGrow, Idx: 1}, func(op *Op) { f.GrowBlocks(op.Idx) })
	d.Begin(0, Op{Kind: KindStore, Idx: 0, Arg: 5}, func(op *Op) { f.Store(op.Idx, op.Arg) })
	d.Begin(1, Op{Kind: KindLen}, func(op *Op) { op.Out = int64(f.Len()) })
	d.Await(1)
	d.Await(0)

	h := d.History()
	if len(h.Ops) != 3 {
		t.Fatalf("recorded %d ops, want 3", len(h.Ops))
	}
	st, ln := h.Ops[2], h.Ops[1]
	if st.Kind != KindStore || ln.Kind != KindLen {
		t.Fatalf("unexpected completion order: %v", h.Ops)
	}
	if !(st.Call < ln.Call && ln.Call < ln.Ret && ln.Ret < st.Ret) {
		t.Fatalf("intervals do not overlap as scheduled: store [%d,%d], len [%d,%d]",
			st.Call, st.Ret, ln.Call, ln.Ret)
	}
	seen := map[int64]bool{}
	for _, o := range h.Ops {
		for _, ts := range []int64{o.Call, o.Ret} {
			if seen[ts] {
				t.Fatalf("duplicate timestamp %d", ts)
			}
			seen[ts] = true
		}
	}
}

func TestDriverCapturesPanics(t *testing.T) {
	d := NewDriver("panic", 1, 1)
	defer d.Close()
	op := d.Do(0, Op{Kind: KindLoad, Idx: 99}, func(*Op) { panic("index 99 out of range") })
	if op.Panic != "index 99 out of range" {
		t.Fatalf("panic not captured: %+v", op)
	}
}

func TestDriverYieldPark(t *testing.T) {
	d := NewDriver("yield", 1, 2)
	defer d.Close()
	var order []string
	d.Arm()
	d.Begin(0, Op{Kind: KindLoad}, func(op *Op) {
		d.YieldPoint("mid-read")
		op.Out = 42
	})
	pt := d.WaitYield(0)
	order = append(order, "parked@"+pt)
	d.Do(1, Op{Kind: KindGrow, Idx: 1}, func(*Op) { order = append(order, "grow") })
	d.Resume()
	got := d.Await(0)
	order = append(order, "resumed")
	if got.Out != 42 || got.Panic != "" {
		t.Fatalf("victim op corrupted: %+v", got)
	}
	want := []string{"parked@mid-read", "grow", "resumed"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("schedule order %v, want %v", order, want)
		}
	}
}

func TestDriverStillRunning(t *testing.T) {
	d := NewDriver("block", 1, 2)
	defer d.Close()
	release := make(chan struct{})
	d.Begin(0, Op{Kind: KindGrow}, func(*Op) { <-release })
	if !d.StillRunning(0, 2*time.Millisecond) {
		t.Fatal("blocked op reported complete")
	}
	close(release)
	d.Await(0)
	if d.StillRunning(0, 0) {
		t.Fatal("completed op reported running")
	}
}

// TestGenDeterministicReplay is the byte-for-byte replay contract: the same
// seed yields the identical encoded history, and different seeds differ.
func TestGenDeterministicReplay(t *testing.T) {
	gen := func(seed uint64) string {
		d := NewDriver("fake", seed, 3)
		defer d.Close()
		f := &fakeArray{bs: 8}
		h := GenArrayHistory(d, sameTargets(f, 3), GenConfig{BlockSize: 8, Steps: 50, Shrink: true})
		return h.EncodeString()
	}
	a, b := gen(7), gen(7)
	if a != b {
		t.Fatalf("same seed produced different histories:\n%s\nvs\n%s", a, b)
	}
	if gen(8) == a {
		t.Fatal("different seeds produced identical histories")
	}
}

func TestGenAcceptsCorrectFake(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		d := NewDriver("fake", seed, 3)
		f := &fakeArray{bs: 8}
		h := GenArrayHistory(d, sameTargets(f, 3), GenConfig{BlockSize: 8, Steps: 60, Shrink: true})
		d.Close()
		if rep := CheckArray(h); !rep.Ok {
			t.Fatalf("seed %d: correct fake array rejected: %v\n%s", seed, rep, h.EncodeString())
		}
	}
}

// TestGenRejectsDroppyFake arms the droppy wrapper mid-run: a store issued
// during a structural window is acknowledged but dropped, and the checker
// must reject the history. Rerunning the same schedule reproduces the
// identical history, so the failure replays from its seed.
func TestGenRejectsDroppyFake(t *testing.T) {
	run := func(seed uint64) (Report, string) {
		d := NewDriver("droppy", seed, 2)
		defer d.Close()
		f := &fakeArray{bs: 8}
		dr := &droppyArray{ArrayTarget: f}
		h := d.History()
		h.BlockSize = 8

		d.Do(0, Op{Kind: KindGrow, Idx: 2}, func(op *Op) { f.GrowBlocks(op.Idx) })
		d.Do(1, Op{Kind: KindStore, Idx: 3, Arg: 7}, func(op *Op) { dr.Store(op.Idx, op.Arg) })
		// A grow window during which task 1's store is dropped.
		dr.dropping = true
		d.Begin(0, Op{Kind: KindGrow, Idx: 1}, func(op *Op) { f.GrowBlocks(op.Idx) })
		d.Begin(1, Op{Kind: KindStore, Idx: 3, Arg: 8}, func(op *Op) { dr.Store(op.Idx, op.Arg) })
		d.Await(1)
		d.Await(0)
		dr.dropping = false
		d.Do(1, Op{Kind: KindLoad, Idx: 3}, func(op *Op) { op.Out = dr.Load(op.Idx) })

		return CheckArray(h), h.EncodeString()
	}
	rep1, enc1 := run(3)
	rep2, enc2 := run(3)
	if rep1.Ok || rep2.Ok {
		t.Fatal("droppy array accepted")
	}
	if enc1 != enc2 {
		t.Fatalf("droppy failure does not replay byte-for-byte:\n%s\nvs\n%s", enc1, enc2)
	}
	if len(rep1.Failures) == 0 || rep1.Failures[0].Partition != "elem[3]" {
		t.Fatalf("failure not attributed to the dropped write: %v", rep1)
	}
}
