// Package guardpair_clean holds the negative cases: every pattern here is
// the sanctioned guard discipline and must produce no diagnostics.
package guardpair_clean

import (
	"ebr"
	"qsbr"
)

// deferred is the canonical shape.
func deferred(d *ebr.Domain, work func()) {
	g := d.Enter()
	defer g.Exit()
	work()
}

// deferredSlot is the canonical shape on a stripe.
func deferredSlot(d *ebr.Domain, slot int, work func()) {
	g := d.EnterSlot(slot)
	defer g.Exit()
	work()
}

// deferredClosure releases through a deferred closure (extra bookkeeping
// around the exit).
func deferredClosure(d *ebr.Domain, work func(), done func()) {
	g := d.Enter()
	defer func() {
		g.Exit()
		done()
	}()
	work()
}

// epochRead may use the guard's own methods freely inside the section.
func epochRead(d *ebr.Domain) uint64 {
	g := d.Enter()
	defer g.Exit()
	return g.Epoch()
}

// registered keeps the participant and unregisters it.
func registered(d *qsbr.Domain) {
	p := d.Register()
	defer d.Unregister(p)
	p.Checkpoint()
}

// literalScope acquires and releases within one function literal.
func literalScope(d *ebr.Domain, work func()) func() {
	return func() {
		g := d.Enter()
		defer g.Exit()
		work()
	}
}
