package check

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Op kinds understood by the stock models. Kind is an open string so new
// targets can record their own vocabularies without touching this package.
const (
	KindLoad   = "load"   // element read: Idx -> Out
	KindStore  = "store"  // element write: Idx, Arg
	KindGrow   = "grow"   // capacity add: Idx = blocks added
	KindShrink = "shrink" // capacity remove: Idx = blocks removed
	KindLen    = "len"    // capacity read: Out = elements
	KindCkpt   = "ckpt"   // QSBR checkpoint (no-op for checking; kept for replay fidelity)

	KindPush = "push" // vector append: Arg -> Out = index
	KindPop  = "pop"  // vector pop: Out = value, Out2 = 1 if popped
	KindAt   = "at"   // vector read: Idx -> Out
	KindSet  = "set"  // vector write: Idx, Arg

	KindPut = "put" // map upsert: Idx = key, Arg -> Out2 = 1 if newly inserted
	KindGet = "get" // map lookup: Idx = key -> Out, Out2 = 1 if present
	KindDel = "del" // map delete: Idx = key -> Out2 = 1 if removed
)

// Op is one recorded operation: what was invoked, what it returned, and the
// logical-time interval [Call, Ret] during which it was in flight. Intervals
// overlap exactly when the operations were concurrent.
type Op struct {
	Task  int    // logical task id that issued the op
	Kind  string // operation name (Kind* constants or target-specific)
	Idx   int    // element index, key, or block count, per Kind
	Arg   int64  // input value (stores, puts, pushes)
	Out   int64  // primary result (loads, len, pops)
	Out2  int64  // secondary result (presence/insertion flags)
	Call  int64  // logical timestamp at invocation
	Ret   int64  // logical timestamp at completion
	Panic string // non-empty if the op panicked; Out/Out2 are then invalid
}

func (o Op) String() string {
	s := fmt.Sprintf("t%d %s idx=%d arg=%d out=%d,%d [%d,%d]",
		o.Task, o.Kind, o.Idx, o.Arg, o.Out, o.Out2, o.Call, o.Ret)
	if o.Panic != "" {
		s += " PANIC " + o.Panic
	}
	return s
}

// History is a recorded run: metadata sufficient to check and replay it,
// plus the operations in completion order.
type History struct {
	Name      string // target description, e.g. "core/EBRArray"; no spaces
	Seed      uint64 // generator seed; reruns with this seed reproduce Ops exactly
	Tasks     int    // logical task count
	BlockSize int    // element capacity per block (array targets)
	Base      int    // capacity in elements when recording started
	Ops       []Op
}

// Add appends an op. Histories are built by a single goroutine (the
// driver's generator loop); concurrent recorders must merge afterwards.
func (h *History) Add(op Op) { h.Ops = append(h.Ops, op) }

const historyMagic = "rcuarray-lincheck v1"

// Encode writes the history in a stable text form. Two histories are
// byte-identical iff their metadata and op streams are identical, which is
// what the replay tests assert.
func (h *History) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s\n", historyMagic)
	fmt.Fprintf(bw, "name=%s seed=%d tasks=%d blocksize=%d base=%d ops=%d\n",
		h.Name, h.Seed, h.Tasks, h.BlockSize, h.Base, len(h.Ops))
	for _, o := range h.Ops {
		p := "-"
		if o.Panic != "" {
			p = strconv.Quote(o.Panic)
		}
		fmt.Fprintf(bw, "%d %s %d %d %d %d %d %d %s\n",
			o.Task, o.Kind, o.Idx, o.Arg, o.Out, o.Out2, o.Call, o.Ret, p)
	}
	return bw.Flush()
}

// EncodeString returns the Encode output as a string.
func (h *History) EncodeString() string {
	var sb strings.Builder
	h.Encode(&sb)
	return sb.String()
}

// DecodeHistory parses a history produced by Encode.
func DecodeHistory(r io.Reader) (*History, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	if !sc.Scan() || sc.Text() != historyMagic {
		return nil, fmt.Errorf("check: bad history header %q", sc.Text())
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("check: missing history metadata")
	}
	h := &History{}
	var nops int
	for _, f := range strings.Fields(sc.Text()) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("check: bad metadata field %q", f)
		}
		var err error
		switch k {
		case "name":
			h.Name = v
		case "seed":
			h.Seed, err = strconv.ParseUint(v, 10, 64)
		case "tasks":
			h.Tasks, err = strconv.Atoi(v)
		case "blocksize":
			h.BlockSize, err = strconv.Atoi(v)
		case "base":
			h.Base, err = strconv.Atoi(v)
		case "ops":
			nops, err = strconv.Atoi(v)
		}
		if err != nil {
			return nil, fmt.Errorf("check: bad metadata field %q: %v", f, err)
		}
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.SplitN(line, " ", 9)
		if len(fields) != 9 {
			return nil, fmt.Errorf("check: bad op line %q", line)
		}
		var o Op
		var err error
		geti := func(s string) int {
			n, e := strconv.Atoi(s)
			if e != nil && err == nil {
				err = e
			}
			return n
		}
		get64 := func(s string) int64 {
			n, e := strconv.ParseInt(s, 10, 64)
			if e != nil && err == nil {
				err = e
			}
			return n
		}
		o.Task = geti(fields[0])
		o.Kind = fields[1]
		o.Idx = geti(fields[2])
		o.Arg = get64(fields[3])
		o.Out = get64(fields[4])
		o.Out2 = get64(fields[5])
		o.Call = get64(fields[6])
		o.Ret = get64(fields[7])
		if fields[8] != "-" {
			o.Panic, err = strconv.Unquote(fields[8])
		}
		if err != nil {
			return nil, fmt.Errorf("check: bad op line %q: %v", line, err)
		}
		h.Ops = append(h.Ops, o)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(h.Ops) != nops {
		return nil, fmt.Errorf("check: history declares %d ops, carries %d", nops, len(h.Ops))
	}
	return h, nil
}
