package qsbr

import (
	"runtime"
	"sync"
	"sync/atomic"

	"rcuarray/internal/xsync"
)

// Domain is one QSBR reclamation domain: the global StateEpoch, the registry
// of participants (the paper's TLSList), and the shared orphan list that
// absorbs deferrals from parked or departed participants.
//
// A process normally has exactly one Domain per cluster (it models state
// installed in Chapel's runtime), but tests create many.
type Domain struct {
	// stateEpoch is the monotonically increasing epoch describing the
	// state of the entire system (Algorithm 2). Every Defer advances it.
	stateEpoch xsync.PaddedUint64

	// participants is a copy-on-write snapshot of the registry, so that
	// the min-epoch scan in Checkpoint is lock-free (the paper's "can be
	// traversed ... in a lockless manner").
	participants atomic.Pointer[[]*Participant]
	mu           sync.Mutex // serializes registry mutation only

	// orphans holds deferrals whose owning participant parked or
	// unregistered before they became safe. Any checkpoint drains the
	// safe prefix ("assistance with bookkeeping"). orphanCount mirrors
	// len(orphans) so the checkpoint fast path can skip the lock — a
	// checkpoint must stay cheap enough to invoke after every operation
	// (Figure 4's extreme point).
	orphanMu    sync.Mutex
	orphans     []*deferNode
	orphanCount atomic.Int64

	// departed accumulates the statistics of unregistered participants so
	// the domain totals stay exact across thread churn.
	departedMu sync.Mutex
	departed   stats
}

// stats counts a participant's activity. Counters are written only by the
// owning thread via non-RMW store(load+1) — a checkpoint must not pay for a
// locked RMW on a shared cache line, or per-operation checkpointing
// (Figure 4's leftmost point) becomes as expensive as EBR's counters.
type stats struct {
	defers      atomic.Uint64
	reclaimed   atomic.Uint64
	checkpoints atomic.Uint64
}

// bump and addN update an owner-only counter without an RMW: racy-looking
// but single-writer, and atomic so concurrent readers of the totals are
// well defined.
func bump(c *atomic.Uint64)           { c.Store(c.Load() + 1) }
func addN(c *atomic.Uint64, n uint64) { c.Store(c.Load() + n) }

// Participant is the per-thread metadata of Algorithm 2: the observed epoch
// and the thread-owned defer list. In the paper this lives in runtime TLS;
// here the tasking layer owns one Participant per worker. All methods except
// the atomic observations must be called only by the owning thread.
type Participant struct {
	d        *Domain
	observed atomic.Uint64
	parked   atomic.Bool
	list     deferList
	stats    stats
}

// New returns an empty domain with StateEpoch zero.
func New() *Domain {
	d := &Domain{}
	empty := make([]*Participant, 0)
	d.participants.Store(&empty)
	return d
}

// Register adds a participant (a thread joining the runtime). Its observed
// epoch starts at the current StateEpoch: a fresh thread holds no protected
// references, so it is quiescent with respect to all prior states.
func (d *Domain) Register() *Participant {
	p := &Participant{d: d}
	p.observed.Store(d.stateEpoch.Load())
	d.mu.Lock()
	old := *d.participants.Load()
	next := make([]*Participant, len(old)+1)
	copy(next, old)
	next[len(old)] = p
	d.participants.Store(&next)
	d.mu.Unlock()
	return p
}

// Unregister removes the participant. Its pending deferrals move to the
// orphan list so other participants' checkpoints eventually reclaim them.
func (d *Domain) Unregister(p *Participant) {
	if p.d != d {
		panic("qsbr: Unregister of foreign participant")
	}
	d.mu.Lock()
	old := *d.participants.Load()
	next := make([]*Participant, 0, len(old))
	for _, q := range old {
		if q != p {
			next = append(next, q)
		}
	}
	if len(next) == len(old) {
		d.mu.Unlock()
		panic("qsbr: Unregister of unknown participant")
	}
	d.participants.Store(&next)
	d.mu.Unlock()
	d.adoptOrphans(p.list.takeAll())
	p.parked.Store(true) // any further use is a bug; Defer will panic
	d.departedMu.Lock()
	d.departed.defers.Add(p.stats.defers.Load())
	d.departed.reclaimed.Add(p.stats.reclaimed.Load())
	d.departed.checkpoints.Add(p.stats.checkpoints.Load())
	d.departedMu.Unlock()
}

// Defer schedules free to run once every participant has observed a state
// newer than the one being discarded (Algorithm 2, QSBR_Defer): it advances
// StateEpoch from e to e+1, records that the caller has observed e+1, and
// pushes (free, e+1) LIFO onto the caller's defer list.
//
// The memory that free reclaims must already be unreachable from the current
// protected state (the caller unlinks first, defers second).
func (p *Participant) Defer(free func()) {
	if p.parked.Load() {
		panic("qsbr: Defer on parked or unregistered participant")
	}
	e := p.d.stateEpoch.Inc() // fetchAdd(1)+1: the new epoch
	p.observed.Store(e)
	p.list.push(e, free)
	bump(&p.stats.defers)
}

// Checkpoint announces quiescence — the caller holds no references into any
// QSBR-protected state obtained before this call — and reclaims every
// deferral that has become safe (Algorithm 2, QSBR_Checkpoint). It returns
// the number of objects reclaimed.
func (p *Participant) Checkpoint() int {
	if p.parked.Load() {
		panic("qsbr: Checkpoint on parked or unregistered participant")
	}
	d := p.d
	bump(&p.stats.checkpoints)
	// Observe the current state (lines 4–5).
	p.observed.Store(d.stateEpoch.Load())
	// Find the minimum (safest) observed epoch (lines 6–8).
	min := d.minObserved()
	// Split our defer list and reclaim the safe suffix (lines 9–13).
	n := reclaim(p.list.popLessEqual(min))
	n += d.reclaimOrphans(min)
	if n > 0 {
		addN(&p.stats.reclaimed, uint64(n))
	}
	return n
}

// Park marks the participant idle (Chapel: a thread without a task). A
// parked participant is quiescent by definition and excluded from the
// min-epoch scan, so it cannot stall reclamation. Its own pending deferrals
// are cleaned up as far as possible and the remainder handed to the orphan
// list (the paper's park-time "cleanup its own DeferList").
//
// The caller must hold no QSBR-protected references.
func (p *Participant) Park() {
	if p.parked.Load() {
		panic("qsbr: Park of already parked participant")
	}
	p.Checkpoint()
	p.d.adoptOrphans(p.list.takeAll())
	p.parked.Store(true)
}

// Unpark returns the participant to active duty: it observes the current
// epoch (it can only acquire references from the current or newer states)
// and rejoins the min-epoch scan.
func (p *Participant) Unpark() {
	p.observed.Store(p.d.stateEpoch.Load())
	if !p.parked.CompareAndSwap(true, false) {
		panic("qsbr: Unpark of non-parked participant")
	}
}

// Parked reports whether the participant is parked.
func (p *Participant) Parked() bool { return p.parked.Load() }

// Observed returns the participant's last observed epoch.
func (p *Participant) Observed() uint64 { return p.observed.Load() }

// Pending returns the number of entries waiting on the defer list.
func (p *Participant) Pending() int { return p.list.size }

// minObserved returns the minimum observed epoch over all active (unparked)
// participants. If every participant is parked the current StateEpoch is the
// bound: nothing can hold a reference. Parked participants are skipped rather
// than stored as a +∞ observed epoch, so no epoch value is reserved.
func (d *Domain) minObserved() uint64 {
	min := d.stateEpoch.Load()
	for _, q := range *d.participants.Load() {
		if q.parked.Load() {
			continue
		}
		if o := q.observed.Load(); o < min {
			min = o
		}
	}
	return min
}

// adoptOrphans appends a chain to the orphan list.
func (d *Domain) adoptOrphans(head *deferNode) {
	if head == nil {
		return
	}
	d.orphanMu.Lock()
	n := 0
	for head != nil {
		next := head.next
		head.next = nil
		d.orphans = append(d.orphans, head)
		head = next
		n++
	}
	d.orphanCount.Add(int64(n))
	d.orphanMu.Unlock()
}

// reclaimOrphans frees orphaned deferrals with safeEpoch <= min and returns
// how many were freed. The free closures run outside the lock.
func (d *Domain) reclaimOrphans(min uint64) int {
	if d.orphanCount.Load() == 0 {
		// Common case: no parked/departed deferrals pending. Skipping
		// the lock keeps per-operation checkpoints cheap.
		return 0
	}
	d.orphanMu.Lock()
	if len(d.orphans) == 0 {
		d.orphanMu.Unlock()
		return 0
	}
	var safe, keep []*deferNode
	for _, n := range d.orphans {
		if n.safeEpoch <= min {
			safe = append(safe, n)
		} else {
			keep = append(keep, n)
		}
	}
	d.orphans = keep
	d.orphanCount.Store(int64(len(keep)))
	d.orphanMu.Unlock()
	for _, n := range safe {
		n.free()
	}
	return len(safe)
}

// Drain repeatedly checkpoints p until every deferral in the domain has
// been reclaimed or attempts checkpoints run out; it reports whether the
// domain drained completely. Other participants must quiesce (checkpoint,
// park, or unregister) for Drain to succeed — it cannot reclaim on their
// behalf, only wait for them; attempts bounds that wait. Teardown paths and
// tests use it instead of hand-rolled checkpoint loops.
func (d *Domain) Drain(p *Participant, attempts int) bool {
	for i := 0; i < attempts; i++ {
		p.Checkpoint()
		if d.Defers() == d.Reclaimed() {
			return true
		}
		runtime.Gosched()
	}
	p.Checkpoint()
	return d.Defers() == d.Reclaimed()
}

// StateEpoch returns the current global state epoch.
func (d *Domain) StateEpoch() uint64 { return d.stateEpoch.Load() }

// Participants returns the number of registered participants.
func (d *Domain) Participants() int { return len(*d.participants.Load()) }

// Reclaimed returns the total number of objects reclaimed. The total is
// exact once participants quiesce; while they run it can lag briefly.
func (d *Domain) Reclaimed() uint64 {
	return d.sum(func(s *stats) *atomic.Uint64 { return &s.reclaimed })
}

// Defers returns the total number of Defer calls.
func (d *Domain) Defers() uint64 {
	return d.sum(func(s *stats) *atomic.Uint64 { return &s.defers })
}

// Checkpoints returns the total number of Checkpoint calls.
func (d *Domain) Checkpoints() uint64 {
	return d.sum(func(s *stats) *atomic.Uint64 { return &s.checkpoints })
}

func (d *Domain) sum(pick func(*stats) *atomic.Uint64) uint64 {
	d.departedMu.Lock()
	total := pick(&d.departed).Load()
	d.departedMu.Unlock()
	for _, p := range *d.participants.Load() {
		total += pick(&p.stats).Load()
	}
	return total
}

// OrphanCount returns the number of orphaned deferrals currently pending.
func (d *Domain) OrphanCount() int {
	d.orphanMu.Lock()
	defer d.orphanMu.Unlock()
	return len(d.orphans)
}
