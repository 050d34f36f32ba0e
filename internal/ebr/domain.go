package ebr

import (
	"fmt"
	"math"
	"sync/atomic"

	"rcuarray/internal/obs"
	"rcuarray/internal/xsync"
)

// MaxStripes is the compile-time cap on reader-counter stripes per parity.
// It is a power of two so the stripe mask is a single AND. Sixteen stripes
// cover the per-locale worker counts this repository simulates (the paper's
// machines run 44 tasks, but readers hash onto stripes, so more workers than
// stripes only brings back partial sharing, never incorrectness).
const MaxStripes = 16

// DefaultStripes is the stripe count used by New when the caller does not
// size the domain explicitly.
const DefaultStripes = 8

// Domain is one reclamation domain: a GlobalEpoch plus the collective
// EpochReaders counters of Algorithm 1. RCUArray instantiates one Domain per
// locale (inside each privatized copy); the domain is equally usable on its
// own.
//
// The paper's Algorithm 1 keeps exactly two counters — EpochReaders[2],
// selected by epoch parity — which makes that pair the single hottest pair
// of words in the whole system: every read pays two atomic RMWs on them, and
// concurrent readers on one locale serialize on the two cache lines. This
// implementation departs from the paper by striping each parity's counter
// over up to MaxStripes cache lines: a reader increments the stripe selected
// by its task slot, and Synchronize sums the retired parity's stripes. The
// parity/verification protocol (and Lemma 2's overflow argument) is
// unchanged; only the representation of "the count of readers at parity p"
// is distributed.
//
// A Domain must not be copied after first use. The zero value is a valid
// flat (single-stripe) domain, matching the paper's layout exactly.
type Domain struct {
	// globalEpoch is the monotonically increasing epoch. Writers advance
	// it with fetch-add after publishing a new snapshot.
	globalEpoch xsync.PaddedUint64
	// stripeMask maps a task slot to a stripe: stripe = slot & stripeMask.
	// Zero (the zero value) degenerates to the paper's flat layout. Set
	// only at construction, read-only afterwards.
	stripeMask uint64
	// readers are the collective in-progress counters: [parity][stripe].
	// Each stripe owns its cache line, so readers on distinct slots no
	// longer contend.
	readers [2][MaxStripes]xsync.PaddedUint64
	// writerActive detects violations of the precondition that
	// Synchronize callers hold mutual exclusion (the paper's WriteLock).
	writerActive atomic.Int32
	// waiter is the wake channel of a Synchronize parked on its grace
	// period (nil = none parked). Only the writer stores it, so it shares
	// writerActive's line rather than a line readers write; the release
	// that takes a stripe to zero loads it and sends without blocking.
	waiter atomic.Pointer[chan struct{}]
	// graced is the epoch the last finished Synchronize advanced to, the
	// mark Unpublished.After checks its swap's epoch against. Only the
	// writer stores it, once per Synchronize.
	graced atomic.Uint64
	// retries counts read-side verification failures (the loop at
	// Algorithm 1 lines 9–17). Exposed for the ablation benchmarks.
	retries xsync.PaddedUint64
	// synchronizes counts writer-side Synchronize calls.
	synchronizes xsync.PaddedUint64
	// o is the observability destination installed by Observe; nil means
	// the process-global default (see obs.go).
	o atomic.Pointer[domainObs]

	// Watchdog state (watchdog.go), written only while observability is on.
	// syncStart is the obs.Stamp at which an in-flight Synchronize advanced
	// the epoch (0 = none in flight); syncParity is the parity it is waiting
	// out. lastEntry[parity][stripe] is the most recent
	// reader annotation on that stripe — packed (slot, site) — stored with
	// one plain atomic write at Enter so the watchdog can name the culprit of
	// a stalled grace period without the read path ever taking a timestamp.
	syncStart  atomic.Int64
	syncParity atomic.Uint64
	lastEntry  [2][MaxStripes]atomic.Uint64
}

// Reader entry sites, packed into the watchdog annotation so a stall report
// can say how the culprit entered its critical section.
const (
	siteEnter = 1 // Enter / EnterSlot / Read
	sitePin   = 2 // Pinned session Pin
	siteRepin = 3 // Pinned session budget repin
)

// siteName renders an entry site for stall reports.
func siteName(site uint64) string {
	switch site {
	case siteEnter:
		return "enter"
	case sitePin:
		return "pin"
	case siteRepin:
		return "repin"
	default:
		return "unknown"
	}
}

// annotate records (slot, site) on a parity/stripe cell: bit 0 marks the
// annotation valid, bits 1–2 the site, the rest the slot. One plain atomic
// store, no timestamp — cheap enough to run on every traced Enter.
func (d *Domain) annotate(idx, stripe uint64, slot int, site uint64) {
	d.lastEntry[idx][stripe].Store(uint64(slot)<<3 | site<<1 | 1)
}

// New returns a domain with DefaultStripes reader stripes and the epoch
// starting at zero.
func New() *Domain { return NewStriped(DefaultStripes) }

// NewStriped returns a domain whose per-parity reader counter is striped
// over n cache lines (rounded up to a power of two, clamped to
// [1, MaxStripes]). NewStriped(1), like the zero value, is the paper's exact
// Algorithm 1 layout; the A/B benchmarks use it as the baseline.
func NewStriped(n int) *Domain {
	return &Domain{stripeMask: uint64(xsync.RoundPow2(n, MaxStripes) - 1)}
}

// NewAtEpoch returns a default-striped domain whose epoch starts at e. Tests
// use it to start just below the uint64 overflow boundary and exercise
// Lemma 2.
func NewAtEpoch(e uint64) *Domain {
	d := NewStriped(DefaultStripes)
	d.globalEpoch.Store(e)
	d.graced.Store(e)
	return d
}

// Stripes returns the number of reader counter stripes per parity.
func (d *Domain) Stripes() int { return int(d.stripeMask) + 1 }

// Guard is the evidence of a successfully linearized read-side critical
// section. It records the exact stripe the reader incremented, so that Exit
// decrements the same one even if the epoch has advanced meanwhile.
//
// A Guard must not be copied: a copy shares the stripe counter but not the
// exited latch, so exiting both unbalances the reader count. go vet's
// copylocks check enforces this through the noCopy field, also for Pinned,
// core.Reader and any struct that holds one.
type Guard struct {
	_      noCopy
	d      *Domain
	cell   *xsync.PaddedUint64
	epoch  uint64
	idx    uint64
	stripe uint64
	exited bool
}

// noCopy is a zero-size sentinel: go vet's copylocks check treats any type
// with pointer-receiver Lock and Unlock methods as a lock and reports every
// by-value copy of a struct that contains one.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Enter begins a read-side critical section on stripe 0. Callers that have a
// task slot should prefer EnterSlot, which spreads concurrent readers over
// the striped counters.
func (d *Domain) Enter() Guard { return d.EnterSlot(0) }

// EnterSlot begins a read-side critical section (Algorithm 1, RCU_Read lines
// 9–13): record the operation on the parity counter of the observed epoch —
// on the stripe selected by slot — then verify the epoch did not change
// between the load and the increment. On verification failure the increment
// is undone and the reader retries.
//
// After EnterSlot returns, the snapshot that was current at the returned
// guard's epoch — or any newer snapshot — may be accessed safely until Exit.
func (d *Domain) EnterSlot(slot int) Guard {
	stripe := uint64(slot) & d.stripeMask
	for {
		epoch := d.globalEpoch.Load()
		idx := epoch & 1
		cell := &d.readers[idx][stripe]
		cell.Inc()
		if d.globalEpoch.Load() == epoch {
			// Linearized: any writer advancing the epoch from this
			// point on sums our stripe before reclaiming.
			if obs.On() {
				d.annotate(idx, stripe, slot, siteEnter)
			}
			return Guard{d: d, cell: cell, epoch: epoch, idx: idx, stripe: stripe}
		}
		// A writer moved the epoch between our load and increment; a
		// future writer waiting on the *new* parity would not see us.
		// Undo and retry (lines 17, 9). The undo can be the last
		// decrement a parked writer waits on, so it wakes like an Exit.
		d.release(cell)
		d.retries.Inc()
		if obs.On() {
			d.obsHandles().retries.Inc()
		}
	}
}

// Exit ends the read-side critical section begun by Enter/EnterSlot. Exiting
// the same guard twice panics; so does any Exit that would drive the stripe
// counter negative (the signature of exiting a stale copy of an
// already-exited guard, which would otherwise silently wedge Synchronize
// forever — or worse, release it early past a live reader).
func (g *Guard) Exit() {
	if g.d == nil {
		panic("ebr: Exit of zero Guard")
	}
	if g.exited {
		panic("ebr: double Exit of Guard")
	}
	g.exited = true
	if after := g.d.release(g.cell); after > math.MaxUint64/2 {
		panic(fmt.Sprintf("ebr: unbalanced Exit underflowed reader counter (parity %d stripe %d)", g.idx, g.stripe))
	}
}

// release decrements a reader stripe and returns its new value. The decrement
// that takes the stripe to zero wakes a parked Synchronize: the writer stores
// waiter before it re-sums the stripes, and release decrements before it loads
// waiter, so under Go's sequentially consistent atomics either the writer's
// re-sum sees this decrement or this load sees the writer's channel.
func (d *Domain) release(cell *xsync.PaddedUint64) uint64 {
	after := cell.Dec()
	if after == 0 {
		if w := d.waiter.Load(); w != nil {
			select {
			case *w <- struct{}{}:
			default: // a wake is already pending
			}
		}
	}
	return after
}

// Epoch returns the guard's linearized epoch. Torture tests correlate it
// with snapshot identity.
func (g *Guard) Epoch() uint64 { return g.epoch }

// Read runs fn inside a read-side critical section on stripe 0. It is the
// λ-application convenience corresponding to RCU_Read lines 14–16. The exit
// is deferred: if fn panics, the reader counter is still released, so a
// poisoned dereference inside fn cannot wedge every later Synchronize.
func (d *Domain) Read(fn func()) { d.ReadSlot(0, fn) }

// ReadSlot runs fn inside a read-side critical section on the stripe
// selected by slot, releasing the guard even if fn panics.
func (d *Domain) ReadSlot(slot int, fn func()) {
	g := d.EnterSlot(slot)
	defer g.Exit()
	fn()
}

// Synchronize advances the epoch and waits until every reader that recorded
// itself against the *previous* epoch's parity has exited (Algorithm 1,
// RCU_Write lines 5–7). On return, no read-side critical section that began
// before the call can still observe data unlinked before the call, so the
// caller may reclaim it (line 8): Unpublished.After yields every value a
// Cell.Swap unpublished before the call.
//
// With striping, "the previous parity's counter is zero" becomes "one full
// pass over the previous parity's stripes sums to zero". That pass is safe:
// a linearized old-parity reader incremented its stripe before our epoch
// advance (its verification read the pre-advance epoch), so every later load
// of that stripe observes the increment until the reader exits; readers
// arriving after the advance target the new parity, and the only transient
// old-parity increments are verification failures, which make a pass read a
// stale nonzero — never a false zero — and cost one more pass.
//
// The wait spins for syncSpins passes and then parks until the release that
// takes an old-parity stripe to zero wakes it, so the grace period ends when
// the last old-parity reader leaves, not when a sleep timer fires.
//
// Callers must hold the same mutual exclusion that serializes writers (the
// paper's cluster-wide WriteLock): concurrent Synchronize calls would race
// on parity and are detected and rejected.
func (d *Domain) Synchronize() {
	if !d.writerActive.CompareAndSwap(0, 1) {
		panic("ebr: concurrent Synchronize (WriteLock not held?)")
	}
	defer d.writerActive.Store(0)

	d.synchronizes.Inc()
	// Synchronize is the writer-side slow path, so it times itself when
	// observability is on: the grace period — epoch advance to last
	// old-parity reader exit — is the quantity the reclamation literature
	// says to watch (defer-backlog blowup starts here).
	t0 := obs.Start()
	// fetch-add: the returned previous value is the epoch e whose readers
	// may still be using the snapshot being retired.
	prev := d.globalEpoch.Add(1) - 1
	idx := prev & 1
	if t0 != 0 {
		// Publish the in-flight grace period for the stall watchdog: parity
		// first, so a sampler that sees syncStart non-zero reads the parity
		// this Synchronize is actually waiting on.
		d.syncParity.Store(idx)
		d.syncStart.Store(int64(t0))
	}
	var stalls uint64
	for d.sumStripes(idx) != 0 {
		stalls++
		if stalls <= syncSpins {
			spin(4 << (stalls % 6))
			continue
		}
		// Publish the wake channel, then re-sum: a reader whose last
		// decrement landed before the store is seen by the re-sum, and one
		// landing after it sees the channel.
		ch := make(chan struct{}, 1)
		d.waiter.Store(&ch)
		if d.sumStripes(idx) != 0 {
			<-ch
		}
		d.waiter.Store(nil)
	}
	d.graced.Store(prev + 1)
	if t0 != 0 {
		d.syncStart.Store(0)
	}
	o := d.obsHandles()
	o.grace.Since(t0)
	o.stalls.Add(stalls)
}

// syncSpins is how many busy-spin steps Synchronize takes before it parks.
// The steps are short and few: on a single-core host (GOMAXPROCS=1) pure
// spinning would starve the reader it waits on.
const syncSpins = 16

// spin busy-loops n iterations.
//
//go:noinline
func spin(n uint64) {
	for i := uint64(0); i < n; i++ {
		// The loop body is empty on purpose; go:noinline keeps the
		// compiler from deleting the loop entirely.
	}
}

// sumStripes returns one pass over parity idx's stripes.
func (d *Domain) sumStripes(idx uint64) uint64 {
	var total uint64
	for s := uint64(0); s <= d.stripeMask; s++ {
		total += d.readers[idx][s].Load()
	}
	return total
}

// Epoch returns the current global epoch.
func (d *Domain) Epoch() uint64 { return d.globalEpoch.Load() }

// ActiveReaders returns the current sum over stripes of the parity-idx
// reader counter. It is a diagnostic: the value is immediately stale.
func (d *Domain) ActiveReaders(idx uint64) uint64 { return d.sumStripes(idx & 1) }

// StripeReaders returns the current value of one stripe of the parity-idx
// counter (diagnostics and striping tests).
func (d *Domain) StripeReaders(idx uint64, stripe int) uint64 {
	return d.readers[idx&1][uint64(stripe)&d.stripeMask].Load()
}

// Retries returns the total number of read-side verification failures.
func (d *Domain) Retries() uint64 { return d.retries.Load() }

// Synchronizes returns the total number of Synchronize calls.
func (d *Domain) Synchronizes() uint64 { return d.synchronizes.Load() }
