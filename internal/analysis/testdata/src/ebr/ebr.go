// Package ebr is a typed stub of rcuarray/internal/ebr for analyzer tests:
// same names, same shapes, none of the logic. Analyzers match repo types by
// (package short name, type name), so these stubs exercise exactly the same
// matching paths as the real module.
package ebr

// Domain is a stub reclamation domain.
type Domain struct {
	epoch uint64
}

// Guard is a stub read-side guard.
type Guard struct {
	d      *Domain
	exited bool
}

// New returns a stub domain.
func New() *Domain { return &Domain{} }

// Enter begins a stub read-side critical section.
func (d *Domain) Enter() Guard { return Guard{d: d} }

// EnterSlot begins a stub read-side critical section on a stripe.
func (d *Domain) EnterSlot(slot int) Guard { _ = slot; return Guard{d: d} }

// Synchronize is a stub grace period.
func (d *Domain) Synchronize() {}

// Exit ends the stub critical section.
func (g *Guard) Exit() { g.exited = true }

// Epoch returns the stub epoch.
func (g *Guard) Epoch() uint64 { return 0 }
