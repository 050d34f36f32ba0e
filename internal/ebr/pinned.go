package ebr

import "rcuarray/internal/obs"

// DefaultPinBudget is the number of Tick calls a pinned session serves
// before it voluntarily repins even when no writer has advanced the epoch.
// A waiting writer does not depend on it: the first Tick after an epoch
// advance repins (see Tick).
const DefaultPinBudget = 1024

// Pinned is an amortized read-side session: one Enter serving many
// operations. The paper's Algorithm 1 pays two atomic RMWs per read; a
// Pinned session pays them once per budget-window instead, which is the
// read-side amortization of Dewan & Jenkins' follow-up work transplanted
// onto the two-counter protocol.
//
// A pinned reader holds its epoch open, so a pin that outlived a writer's
// epoch advance would starve it in Synchronize. Tick prevents that: it loads
// the global epoch, and the first Tick after an advance exits and re-enters
// the critical section (a repin), so a writer waits for at most one
// operation of a ticking session; the exit wakes a parked writer. A session
// also repins when its budget of Ticks is spent. An idle session does not
// Tick, so it holds a writer until it next ticks, repins or unpins. Callers
// that cache epoch-protected state (snapshot pointers) must refresh it
// whenever Tick or Repin report a repin.
//
// A Pinned must not be copied and is not safe for concurrent use; it is a
// per-task object, like the task slot that names its stripe.
type Pinned struct {
	d      *Domain
	g      Guard
	slot   int
	budget int
	ops    int
	repins uint64
}

// Pin opens a pinned read-side session on the stripe selected by slot.
// budget <= 0 selects DefaultPinBudget.
func (d *Domain) Pin(slot, budget int) (p Pinned) {
	if budget <= 0 {
		budget = DefaultPinBudget
	}
	p = Pinned{d: d, g: d.EnterSlot(slot), slot: slot, budget: budget}
	if obs.On() {
		// Re-annotate over EnterSlot's mark: a stall report should say the
		// culprit is a pinned session, not a plain reader.
		d.annotate(p.g.idx, p.g.stripe, slot, sitePin)
	}
	return
}

// Epoch returns the epoch of the current pin window.
func (p *Pinned) Epoch() uint64 { return p.g.Epoch() }

// Tick accounts one operation against the pin budget and reports whether
// the session repinned (in which case any state the caller resolved under
// the previous pin window must be re-resolved). It repins when the budget is
// spent or when a writer has advanced the epoch since the window began.
func (p *Pinned) Tick() bool {
	p.ops++
	if p.ops < p.budget && p.d.globalEpoch.Load() == p.g.epoch {
		return false
	}
	if obs.On() && p.ops >= p.budget {
		p.d.obsHandles().repins.Inc()
	}
	p.Repin()
	return true
}

// Repin ends the current pin window and immediately starts a new one,
// letting any writer blocked in Synchronize complete its grace period.
func (p *Pinned) Repin() {
	p.g.Exit()
	p.g = p.d.EnterSlot(p.slot)
	if obs.On() {
		p.d.annotate(p.g.idx, p.g.stripe, p.slot, siteRepin)
	}
	p.ops = 0
	p.repins++
}

// Unpin ends the session. The session must not be used afterwards; a second
// Unpin panics (via Guard.Exit's double-exit detection).
func (p *Pinned) Unpin() { p.g.Exit() }

// Repins returns how many repins the session performed (ablation
// diagnostics).
func (p *Pinned) Repins() uint64 { return p.repins }

// Budget returns the session's per-window operation budget.
func (p *Pinned) Budget() int { return p.budget }
