package check

import (
	"fmt"
	"sort"
)

// Model is a sequential specification. The checker searches for an order of
// the history's operations that (a) respects real time — an op linearizes
// somewhere inside its [Call, Ret] interval — and (b) replays through Step
// with every recorded result consistent.
type Model struct {
	// Name labels the model in reports.
	Name string
	// Init returns the initial sequential state.
	Init func() any
	// Step applies op to state: it returns whether the op's recorded
	// results are possible from state, and the successor state. Step must
	// not mutate state in place (backtracking restores prior states).
	Step func(state any, op *Op) (bool, any)
	// Key maps a state to a comparable value for memoization. Nil means
	// the state itself is comparable and used directly.
	Key func(state any) any
}

func (m Model) key(state any) any {
	if m.Key == nil {
		return state
	}
	return m.Key(state)
}

// Result reports one partition's check.
type Result struct {
	Ok           bool
	Inconclusive bool // search budget exhausted before a verdict
	Steps        int  // search steps spent
	// FailedOp indexes (into the checked op slice) the operation whose
	// return forced the final backtrack to fail — the earliest completion
	// by which no linearization exists. -1 when Ok.
	FailedOp int
}

// DefaultMaxSteps bounds the WGL search per partition. Partitioned register
// histories need orders of magnitude less; the bound exists so a
// pathological history ends as Inconclusive instead of stalling the test
// that checks it.
const DefaultMaxSteps = 1 << 22

type event struct {
	time   int64
	isCall bool
	id     int // op index
}

type entry struct {
	id         int
	isCall     bool
	match      *entry // call -> its return
	prev, next *entry
}

type stackEl struct {
	e     *entry
	state any
}

// Check runs the WGL linearizability search of ops against m. maxSteps <= 0
// selects DefaultMaxSteps. Timestamps must satisfy Call < Ret per op;
// distinct events should carry distinct timestamps (the driver guarantees
// this; ties are broken returns-first, which only narrows intervals and
// never accepts an incorrect history).
func Check(m Model, ops []Op, maxSteps int) Result {
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	n := len(ops)
	if n == 0 {
		return Result{Ok: true, FailedOp: -1}
	}
	if n > 4096 {
		// The linearized-set bitmask keying below is exact, but histories
		// this large are outside the tool's design envelope; refuse rather
		// than burn unbounded memory.
		return Result{Inconclusive: true, FailedOp: -1}
	}

	events := make([]event, 0, 2*n)
	for i, o := range ops {
		if o.Call >= o.Ret {
			panic(fmt.Sprintf("check: op %d has Call %d >= Ret %d", i, o.Call, o.Ret))
		}
		events = append(events, event{o.Call, true, i}, event{o.Ret, false, i})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].time != events[j].time {
			return events[i].time < events[j].time
		}
		return !events[i].isCall && events[j].isCall // returns first on ties
	})

	// Build the doubly linked entry list with a sentinel head.
	head := &entry{id: -1}
	cur := head
	returns := make(map[int]*entry, n)
	for _, ev := range events {
		e := &entry{id: ev.id, isCall: ev.isCall}
		if !ev.isCall {
			returns[ev.id] = e
		}
		e.prev = cur
		cur.next = e
		cur = e
	}
	for e := head.next; e != nil; e = e.next {
		if e.isCall {
			e.match = returns[e.id]
		}
	}

	lift := func(e *entry) {
		e.prev.next = e.next
		if e.next != nil {
			e.next.prev = e.prev
		}
		r := e.match
		r.prev.next = r.next
		if r.next != nil {
			r.next.prev = r.prev
		}
	}
	unlift := func(e *entry) {
		r := e.match
		r.prev.next = r
		if r.next != nil {
			r.next.prev = r
		}
		e.prev.next = e
		if e.next != nil {
			e.next.prev = e
		}
	}

	words := (n + 63) / 64
	linearized := make([]uint64, words)
	keyBits := func(extra int) string {
		buf := make([]byte, 8*words)
		for w, v := range linearized {
			if extra/64 == w {
				v |= 1 << (uint(extra) % 64)
			}
			for b := 0; b < 8; b++ {
				buf[8*w+b] = byte(v >> (8 * b))
			}
		}
		return string(buf)
	}

	type cacheKey struct {
		bits string
		st   any
	}
	cache := make(map[cacheKey]struct{})

	state := m.Init()
	var stk []stackEl
	steps := 0
	e := head.next
	for head.next != nil {
		steps++
		if steps > maxSteps {
			return Result{Inconclusive: true, Steps: steps, FailedOp: -1}
		}
		if e == nil {
			// Walked off the end without hitting a return: every pending
			// entry is a call we failed to linearize, so backtrack.
			if len(stk) == 0 {
				return Result{Steps: steps, FailedOp: firstPending(head)}
			}
			top := stk[len(stk)-1]
			stk = stk[:len(stk)-1]
			state = top.state
			linearized[top.e.id/64] &^= 1 << (uint(top.e.id) % 64)
			unlift(top.e)
			e = top.e.next
			continue
		}
		if e.isCall {
			ok, ns := m.Step(state, &ops[e.id])
			if ok {
				ck := cacheKey{keyBits(e.id), m.key(ns)}
				if _, seen := cache[ck]; !seen {
					cache[ck] = struct{}{}
					stk = append(stk, stackEl{e, state})
					state = ns
					linearized[e.id/64] |= 1 << (uint(e.id) % 64)
					lift(e)
					e = head.next
					continue
				}
			}
			e = e.next
			continue
		}
		// Reached a return event: every op callable before it has been
		// tried in this configuration; undo the most recent choice.
		if len(stk) == 0 {
			return Result{Steps: steps, FailedOp: e.id}
		}
		top := stk[len(stk)-1]
		stk = stk[:len(stk)-1]
		state = top.state
		linearized[top.e.id/64] &^= 1 << (uint(top.e.id) % 64)
		unlift(top.e)
		e = top.e.next
	}
	return Result{Ok: true, Steps: steps, FailedOp: -1}
}

func firstPending(head *entry) int {
	if head.next != nil {
		return head.next.id
	}
	return -1
}

// PartitionFailure describes one rejected partition.
type PartitionFailure struct {
	Partition string
	Res       Result
	Ops       []Op
}

func (f PartitionFailure) String() string {
	s := fmt.Sprintf("partition %s: not linearizable (search steps %d", f.Partition, f.Res.Steps)
	if f.Res.FailedOp >= 0 && f.Res.FailedOp < len(f.Ops) {
		s += fmt.Sprintf(", stuck at {%s}", f.Ops[f.Res.FailedOp])
	}
	return s + ")"
}

// Report aggregates the partitioned check of one history.
type Report struct {
	Ok           bool
	Partitions   int
	Inconclusive int // partitions whose search budget ran out
	Panics       int // ops excluded because they panicked
	Failures     []PartitionFailure
}

func (r Report) String() string {
	if r.Ok {
		return fmt.Sprintf("linearizable (%d partitions, %d inconclusive, %d panics)",
			r.Partitions, r.Inconclusive, r.Panics)
	}
	s := fmt.Sprintf("NOT linearizable (%d/%d partitions failed):", len(r.Failures), r.Partitions)
	for _, f := range r.Failures {
		s += "\n  " + f.String()
	}
	return s
}

// CheckArray checks an array history: element ops (load/store) are
// partitioned by index against a register model; grow/shrink/len form a
// capacity partition. Ckpt ops and unknown kinds are ignored; panicked ops
// are excluded and counted. Each partition's search is bounded by
// DefaultMaxSteps.
func CheckArray(h *History) Report {
	rep := Report{Ok: true}
	elems := make(map[int][]Op)
	var capOps []Op
	for _, o := range h.Ops {
		if o.Panic != "" {
			rep.Panics++
			continue
		}
		switch o.Kind {
		case KindLoad, KindStore:
			elems[o.Idx] = append(elems[o.Idx], o)
		case KindGrow, KindShrink, KindLen:
			capOps = append(capOps, o)
		}
	}

	addResult := func(name string, m Model, ops []Op) {
		res := Check(m, ops, 0)
		rep.Partitions++
		if res.Inconclusive {
			rep.Inconclusive++
			return
		}
		if !res.Ok {
			rep.Ok = false
			rep.Failures = append(rep.Failures, PartitionFailure{name, res, ops})
		}
	}

	if len(capOps) > 0 {
		addResult("capacity", CapacityModel(h.BlockSize, h.Base), capOps)
	}
	idxs := make([]int, 0, len(elems))
	for idx := range elems {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		addResult(fmt.Sprintf("elem[%d]", idx), RegisterModel(), elems[idx])
	}
	return rep
}

// CheckKV checks a key-value history (put/get/del) partitioned by key, each
// against the presence/value model of KVModel.
func CheckKV(h *History) Report {
	rep := Report{Ok: true}
	keys := make(map[int][]Op)
	for _, o := range h.Ops {
		if o.Panic != "" {
			rep.Panics++
			continue
		}
		switch o.Kind {
		case KindPut, KindGet, KindDel:
			keys[o.Idx] = append(keys[o.Idx], o)
		}
	}
	ks := make([]int, 0, len(keys))
	for k := range keys {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		res := Check(KVModel(), keys[k], 0)
		rep.Partitions++
		if res.Inconclusive {
			rep.Inconclusive++
			continue
		}
		if !res.Ok {
			rep.Ok = false
			rep.Failures = append(rep.Failures, PartitionFailure{fmt.Sprintf("key[%d]", k), res, keys[k]})
		}
	}
	return rep
}
