package check

import (
	"strings"
	"testing"
)

// ops helper: builds an op with explicit interval.
func op(task int, kind string, idx int, arg, out int64, call, ret int64) Op {
	return Op{Task: task, Kind: kind, Idx: idx, Arg: arg, Out: out, Call: call, Ret: ret}
}

func TestRegisterSequential(t *testing.T) {
	good := []Op{
		op(0, KindStore, 0, 5, 0, 1, 2),
		op(0, KindLoad, 0, 0, 5, 3, 4),
		op(1, KindStore, 0, 9, 0, 5, 6),
		op(0, KindLoad, 0, 0, 9, 7, 8),
	}
	if res := Check(RegisterModel(), good, 0); !res.Ok {
		t.Fatalf("sequential register history rejected: %+v", res)
	}
	bad := []Op{
		op(0, KindStore, 0, 5, 0, 1, 2),
		op(0, KindLoad, 0, 0, 7, 3, 4), // 7 was never written
	}
	if res := Check(RegisterModel(), bad, 0); res.Ok {
		t.Fatal("stale/invented read accepted")
	}
}

func TestRegisterConcurrentEitherValue(t *testing.T) {
	// Load overlaps the Store: both the old (0) and new (5) value are
	// linearizable outcomes.
	for _, out := range []int64{0, 5} {
		h := []Op{
			op(0, KindStore, 0, 5, 0, 1, 6),
			op(1, KindLoad, 0, 0, out, 2, 3),
		}
		if res := Check(RegisterModel(), h, 0); !res.Ok {
			t.Fatalf("concurrent load of %d rejected: %+v", out, res)
		}
	}
	// A load strictly after the store returned must see the new value.
	h := []Op{
		op(0, KindStore, 0, 5, 0, 1, 2),
		op(1, KindLoad, 0, 0, 0, 3, 4),
	}
	if res := Check(RegisterModel(), h, 0); res.Ok {
		t.Fatal("dropped write accepted: load after store returned saw the old value")
	}
}

func TestRegisterConcurrentWriters(t *testing.T) {
	// Two overlapping stores; a later read may see either, but only one
	// ordering exists once a read pins it.
	base := []Op{
		op(0, KindStore, 0, 5, 0, 1, 10),
		op(1, KindStore, 0, 7, 0, 2, 9),
	}
	for _, out := range []int64{5, 7} {
		h := append(append([]Op(nil), base...), op(2, KindLoad, 0, 0, out, 11, 12))
		if res := Check(RegisterModel(), h, 0); !res.Ok {
			t.Fatalf("read of %d after concurrent stores rejected: %+v", out, res)
		}
	}
	// Two sequential reads observing the two stores in both orders is not
	// linearizable (the order was pinned by the first read).
	h := append(append([]Op(nil), base...),
		op(2, KindLoad, 0, 0, 5, 11, 12),
		op(2, KindLoad, 0, 0, 7, 13, 14),
		op(2, KindLoad, 0, 0, 5, 15, 16),
	)
	if res := Check(RegisterModel(), h, 0); res.Ok {
		t.Fatal("value flip-flop between sequential reads accepted")
	}
}

func TestCapacityModel(t *testing.T) {
	bs := 8
	good := []Op{
		op(0, KindGrow, 2, 0, 0, 1, 2),
		op(1, KindLen, 0, 0, 16, 3, 4),
		op(0, KindShrink, 1, 0, 0, 5, 6),
		op(1, KindLen, 0, 0, 8, 7, 8),
	}
	if res := Check(CapacityModel(bs, 0), good, 0); !res.Ok {
		t.Fatalf("capacity history rejected: %+v", res)
	}
	// Len concurrent with a grow may see either capacity.
	for _, out := range []int64{0, 8} {
		h := []Op{
			op(0, KindGrow, 1, 0, 0, 1, 4),
			op(1, KindLen, 0, 0, out, 2, 3),
		}
		if res := Check(CapacityModel(bs, 0), h, 0); !res.Ok {
			t.Fatalf("concurrent len=%d rejected: %+v", out, res)
		}
	}
	bad := []Op{
		op(0, KindGrow, 1, 0, 0, 1, 2),
		op(1, KindLen, 0, 0, 16, 3, 4), // only one block was added
	}
	if res := Check(CapacityModel(bs, 0), bad, 0); res.Ok {
		t.Fatal("phantom capacity accepted")
	}
}

func TestKVModel(t *testing.T) {
	put := func(task, key int, v int64, inserted int64, c, r int64) Op {
		o := op(task, KindPut, key, v, 0, c, r)
		o.Out2 = inserted
		return o
	}
	get := func(task, key int, v, found int64, c, r int64) Op {
		o := op(task, KindGet, key, 0, v, c, r)
		o.Out2 = found
		return o
	}
	del := func(task, key int, removed int64, c, r int64) Op {
		o := op(task, KindDel, key, 0, 0, c, r)
		o.Out2 = removed
		return o
	}
	good := []Op{
		get(0, 1, 0, 0, 1, 2),
		put(0, 1, 42, 1, 3, 4),
		get(1, 1, 42, 1, 5, 6),
		put(1, 1, 43, 0, 7, 8),
		del(0, 1, 1, 9, 10),
		get(0, 1, 0, 0, 11, 12),
	}
	if res := Check(KVModel(), good, 0); !res.Ok {
		t.Fatalf("kv history rejected: %+v", res)
	}
	bad := []Op{
		put(0, 1, 42, 1, 1, 2),
		del(0, 1, 1, 3, 4),
		get(1, 1, 42, 1, 5, 6), // key was deleted
	}
	if res := Check(KVModel(), bad, 0); res.Ok {
		t.Fatal("read of deleted key accepted")
	}
}

func TestVectorModel(t *testing.T) {
	push := func(task int, v, idx int64, c, r int64) Op {
		return op(task, KindPush, 0, v, idx, c, r)
	}
	good := []Op{
		push(0, 10, 0, 1, 2),
		push(0, 11, 1, 3, 4),
		op(1, KindAt, 1, 0, 11, 5, 6),
		{Task: 0, Kind: KindPop, Out: 11, Out2: 1, Call: 7, Ret: 8},
		op(1, KindLen, 0, 0, 1, 9, 10),
	}
	if res := Check(VectorModel(), good, 0); !res.Ok {
		t.Fatalf("vector history rejected: %+v", res)
	}
	bad := []Op{
		push(0, 10, 0, 1, 2),
		{Task: 0, Kind: KindPop, Out: 99, Out2: 1, Call: 3, Ret: 4}, // popped a value never pushed
	}
	if res := Check(VectorModel(), bad, 0); res.Ok {
		t.Fatal("pop of unpushed value accepted")
	}
	// Push concurrent with At of a committed prefix index.
	conc := []Op{
		push(0, 10, 0, 1, 2),
		push(0, 11, 1, 3, 8),
		op(1, KindAt, 0, 0, 10, 4, 5),
	}
	if res := Check(VectorModel(), conc, 0); !res.Ok {
		t.Fatalf("concurrent push/at rejected: %+v", res)
	}
}

func TestCheckArrayPartitionsAndRejects(t *testing.T) {
	h := &History{Name: "crafted", BlockSize: 8, Base: 0}
	h.Ops = []Op{
		op(0, KindGrow, 2, 0, 0, 1, 2),
		op(0, KindStore, 3, 7, 0, 3, 4),
		op(1, KindStore, 9, 8, 0, 5, 6),
		op(1, KindLoad, 3, 0, 7, 7, 8),
		op(0, KindLen, 0, 0, 16, 9, 10),
	}
	rep := CheckArray(h)
	if !rep.Ok {
		t.Fatalf("valid array history rejected: %v", rep)
	}
	if rep.Partitions != 3 { // capacity + elem[3] + elem[9]
		t.Fatalf("partitions = %d, want 3", rep.Partitions)
	}

	// The canonical bug: a write acknowledged during a Grow but dropped —
	// the later read (strictly after the store returned) sees stale data.
	h.Ops = []Op{
		op(0, KindGrow, 2, 0, 0, 1, 2),
		op(1, KindStore, 3, 7, 0, 3, 4),
		op(0, KindGrow, 1, 0, 0, 5, 10),
		op(1, KindStore, 3, 8, 0, 6, 9), // overlaps the grow; dropped by the buggy impl
		op(1, KindLoad, 3, 0, 7, 11, 12),
	}
	rep = CheckArray(h)
	if rep.Ok {
		t.Fatal("dropped-write-during-grow history accepted")
	}
	if len(rep.Failures) != 1 || rep.Failures[0].Partition != "elem[3]" {
		t.Fatalf("failure not attributed to elem[3]: %v", rep)
	}
	if !strings.Contains(rep.String(), "elem[3]") {
		t.Fatalf("report does not name the failing partition: %s", rep)
	}
}

func TestCheckPanickedOpsExcluded(t *testing.T) {
	h := &History{Name: "panics", BlockSize: 8}
	h.Ops = []Op{
		op(0, KindGrow, 1, 0, 0, 1, 2),
		{Task: 1, Kind: KindLoad, Idx: 99, Call: 3, Ret: 4, Panic: "out of range"},
		op(0, KindLoad, 0, 0, 0, 5, 6),
	}
	rep := CheckArray(h)
	if !rep.Ok || rep.Panics != 1 {
		t.Fatalf("panicked op handling wrong: %v (panics=%d)", rep, rep.Panics)
	}
}

func TestCheckManyOverlaps(t *testing.T) {
	// A pile of mutually overlapping stores and one final read; exercises
	// the memoization rather than brute-force 10! orderings.
	var h []Op
	n := 10
	for i := 0; i < n; i++ {
		h = append(h, op(i, KindStore, 0, int64(i+1), 0, int64(i+1), int64(100+i)))
	}
	h = append(h, op(0, KindLoad, 0, 0, int64(n), 200, 201))
	res := Check(RegisterModel(), h, 0)
	if !res.Ok {
		t.Fatalf("overlapping stores rejected: %+v", res)
	}
	// An impossible final read forces the checker to exhaust the space.
	h[len(h)-1].Out = 999
	res = Check(RegisterModel(), h, 0)
	if res.Ok || res.Inconclusive {
		t.Fatalf("impossible read not rejected conclusively: %+v", res)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	h := &History{Name: "core/EBRArray", Seed: 42, Tasks: 3, BlockSize: 8, Base: 16}
	h.Ops = []Op{
		op(0, KindStore, 3, 7, 0, 1, 2),
		{Task: 2, Kind: KindLoad, Idx: 5, Out: -1, Out2: 1, Call: 3, Ret: 6, Panic: `index 5 out of range "quoted"`},
		op(1, KindGrow, 2, 0, 0, 4, 5),
	}
	enc := h.EncodeString()
	got, err := DecodeHistory(strings.NewReader(enc))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.EncodeString() != enc {
		t.Fatalf("round trip differs:\n%s\nvs\n%s", enc, got.EncodeString())
	}
	if len(got.Ops) != 3 || got.Ops[1].Panic != h.Ops[1].Panic {
		t.Fatalf("decoded ops differ: %+v", got.Ops)
	}
}

func TestCheckSearchBudget(t *testing.T) {
	var h []Op
	for i := 0; i < 12; i++ {
		h = append(h, op(i, KindStore, 0, int64(i+1), 0, int64(i+1), int64(100+i)))
	}
	h = append(h, op(0, KindLoad, 0, 0, 999, 200, 201)) // unsatisfiable
	res := Check(RegisterModel(), h, 16)
	if !res.Inconclusive {
		t.Fatalf("tiny budget did not report inconclusive: %+v", res)
	}
}
