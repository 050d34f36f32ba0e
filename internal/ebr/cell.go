package ebr

import "sync/atomic"

// Cell is an RCU publication point: readers Load the current value inside a
// read-side critical section, and the writer replaces it with Swap. There is
// no Store. Swap hands the replaced value back as an Unpublished, which
// yields it only once no reader can still hold it, so the grace period of the
// paper's RCU_Write (publish, wait for readers, free) is carried by the type.
//
// The zero Cell holds nil. A Cell must not be copied after first use.
type Cell[T any] struct {
	p atomic.Pointer[T]
}

// Load returns the current value.
func (c *Cell[T]) Load() *T { return c.p.Load() }

// Swap publishes v and returns the value it replaced. Readers admitted
// before the swap may still hold that value until a grace period on d ends.
// Dropping the result leaves the old value to the garbage collector, which
// is always safe: only freeing it early is not.
func (c *Cell[T]) Swap(d *Domain, v *T) Unpublished[T] {
	old := c.p.Swap(v)
	// Loaded after the swap: a Synchronize that advances past this epoch
	// started after the swap, so it waits out every reader that could have
	// loaded the old value.
	return Unpublished[T]{old: old, d: d, epoch: d.globalEpoch.Load()}
}

// Unpublished is a value a Swap removed from its Cell. It gives the value
// back in only two ways: After, once a Synchronize on the swap's domain has
// finished, and Defer, through a deferral that runs only after quiescence.
type Unpublished[T any] struct {
	old   *T
	d     *Domain
	epoch uint64
}

// After returns the unpublished value. It panics unless a Synchronize on the
// swap's domain has finished since the swap, because until then a reader
// may still hold the value.
func (u Unpublished[T]) After() *T {
	// Signed difference: epochs wrap (Lemma 2), graces are serialized.
	if int64(u.d.graced.Load()-u.epoch) <= 0 {
		panic("ebr: Unpublished.After with no Synchronize finished since the Swap")
	}
	return u.old
}

// Defer registers free(old) with deferFn, which must run its callback only
// after every reader that could hold the value has passed a quiescent state:
// the QSBR paths pass their participant domain's Defer.
func (u Unpublished[T]) Defer(deferFn func(func()), free func(*T)) {
	old := u.old
	deferFn(func() { free(old) })
}
