package check_test

import (
	"fmt"

	"rcuarray/internal/check"
)

// Example records a tiny concurrent history through the deterministic
// driver, checks it against the partitioned array model, and prints the
// verdict. The same seed always reproduces the identical history — encode
// it on failure and replay it from the printed seed.
func Example() {
	d := check.NewDriver("example", 42, 2)
	defer d.Close()

	// A toy in-memory array standing in for rcuarray: real suites bind
	// one core/dvector/dtable target per driver task instead.
	data := make([]int64, 16)

	// Serial ops get non-overlapping intervals.
	d.Do(0, check.Op{Kind: check.KindStore, Idx: 3, Arg: 7}, func(op *check.Op) {
		data[op.Idx] = op.Arg
	})
	// Begin/Await overlap two ops: the load runs concurrently with the
	// store to another index.
	d.Begin(0, check.Op{Kind: check.KindStore, Idx: 5, Arg: 9}, func(op *check.Op) {
		data[op.Idx] = op.Arg
	})
	d.Begin(1, check.Op{Kind: check.KindLoad, Idx: 3}, func(op *check.Op) {
		op.Out = data[op.Idx]
	})
	d.Await(1)
	d.Await(0)

	h := d.History()
	h.BlockSize = 8
	h.Base = 16
	rep := check.CheckArray(h)
	fmt.Printf("seed=%d ops=%d verdict: %v\n", h.Seed, len(h.Ops), rep)
	// Output:
	// seed=42 ops=3 verdict: linearizable (2 partitions, 0 inconclusive, 0 panics)
}
