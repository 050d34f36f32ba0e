package dist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rcuarray/internal/comm"
	"rcuarray/internal/durable"
	"rcuarray/internal/ebr"
	"rcuarray/internal/memory"
	"rcuarray/internal/obs"
	"rcuarray/internal/region"
	"rcuarray/internal/workload"
)

// tableSnapshot is a node's privatized, immutable view of the global block
// table — the distributed rendition of RCUArraySnapshot. It embeds
// memory.Object so premature reclamation trips the poison detector even
// across the wire path.
type tableSnapshot struct {
	memory.Object
	table []BlockRef
}

// ArrayNode is one node of a distributed RCUArray: a TCP endpoint owning a
// shard of blocks, a privatized snapshot under local TLS-free EBR, and the
// workload executor. Node 0 additionally homes the cluster WriteLock.
type ArrayNode struct {
	srv *comm.Node

	mu         sync.Mutex // guards configuration and installs
	id         uint32
	blockSize  int
	peers      []*comm.Client // by node id; nil at own index
	configured atomic.Bool

	dom  ebr.Domain
	snap ebr.Cell[tableSnapshot]

	// Cluster WriteLock lease, meaningful on node 0 only. The lock is a
	// lease with fencing tokens: Acquire grants a fresh monotonically
	// increasing token valid for a TTL; when the TTL passes without a
	// release (a crashed or partitioned driver), the next Acquire simply
	// supersedes it. Install/Abort carry the holder's token, and every
	// node rejects tokens below the highest it has seen, so a superseded
	// holder cannot clobber its successor's table.
	lockMu     sync.Mutex
	lockFence  uint64    // monotonic token source
	lockHolder uint64    // current token, 0 = free
	lockExpiry time.Time // lease end for lockHolder

	// Install/abort fencing, idempotency and region progress (guarded by mu),
	// changed only through rs.next (see durability.go).
	rs resizeState

	// installHook, when set, runs after each region publication with the
	// node's mutex released — the window the chaos and linearizability
	// harnesses use to pause, kill, or read mid-install. Test-only.
	installHook func(step, total int)

	// snapHook, when set, runs after each segment copy of a Snapshot with
	// neither the node's mutex nor the segment lock held — the window the
	// durability tests use to park a snapshot mid-stream and prove writers
	// and installs proceed beside it. Test-only.
	snapHook func(seg uint64)

	// Durability state (see durability.go). dataDir is fixed at
	// construction; identity and restartGen are persisted in node.conf so a
	// restart rejoins with the same identity under a bumped connection
	// generation. The WAL writer, its sequence number, and the snapshot
	// sequence are guarded by mu; snapMu serializes whole Snapshot calls so
	// two concurrent cuts cannot interleave their WAL rotations.
	dataDir    string
	identity   uint64
	restartGen uint64
	wal        *durable.Writer
	walSeq     uint64
	snapSeq    uint64
	snapMu     sync.Mutex

	// watchdog, when NodeOptions.StallThreshold armed one, samples the
	// node's EBR domain for stalled grace periods; stopped in Close.
	watchdog *ebr.Watchdog

	closeOnce sync.Once
	closeErr  error

	// allocs maps alloc request ids to segments so a retried AllocBlock
	// returns the original segment instead of leaking a new one. Each entry
	// remembers the fencing token of the resize that allocated it; entries
	// are pruned when a later install or abort proves the resize committed
	// or died (guarded by mu).
	allocs map[uint64]allocEntry

	// Protocol counters, folded into the node's observability registry so
	// the NodeStats RPC and /metrics read the same source of truth. They
	// count unconditionally (see obs.go); only trace writes are gated.
	reg           *obs.Registry
	installs      *obs.Counter
	aborts        *obs.Counter
	fenced        *obs.Counter
	leaseExpiries *obs.Counter
	regionFlips   *obs.Counter
	snapshots     *obs.Counter
	snapBytes     *obs.Counter
	walRecords    *obs.Counter
	walReplayed   *obs.Counter
	recoveries    *obs.Counter
	snapNs        *obs.Histogram
	recoverNs     *obs.Histogram
	localBlocks   *obs.Gauge
	trace         nodeTrace
}

// NewArrayNode starts an array node listening on addr.
func NewArrayNode(addr string) (*ArrayNode, error) {
	return NewArrayNodeConfig(addr, comm.NodeConfig{})
}

// NewArrayNodeConfig starts an array node with explicit transport tuning
// (frame/idle read deadlines — the chaos harness shortens them). If
// cfg.Obs is nil the node creates its own registry; either way the
// transport's request counters land beside the protocol counters.
func NewArrayNodeConfig(addr string, cfg comm.NodeConfig) (*ArrayNode, error) {
	return NewArrayNodeOpts(addr, NodeOptions{Comm: cfg})
}

// NewArrayNodeOpts starts an array node with full options. With a DataDir,
// the node binds its address first, then — before accepting a single
// connection — recovers any previous incarnation's state from disk: newest
// valid snapshot, WAL replay, peer re-dial under a bumped generation, and
// the catch-up poll (see recoverFromDisk). A recovery failure fails
// construction: serving half-recovered state would silently violate the
// durability contract.
func NewArrayNodeOpts(addr string, opts NodeOptions) (*ArrayNode, error) {
	cfg := opts.Comm
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
		cfg.Obs = reg
	}
	cfg.DeferServe = true
	srv, err := comm.NewNodeConfig(addr, cfg)
	if err != nil {
		return nil, err
	}
	n := &ArrayNode{
		srv:           srv,
		dataDir:       opts.DataDir,
		allocs:        make(map[uint64]allocEntry),
		reg:           reg,
		installs:      reg.Counter("dist_installs_total"),
		aborts:        reg.Counter("dist_aborts_total"),
		fenced:        reg.Counter("dist_fenced_total"),
		leaseExpiries: reg.Counter("dist_lease_expiries_total"),
		regionFlips:   reg.Counter("dist_region_flips_total"),
		snapshots:     reg.Counter("dist_snapshots_total"),
		snapBytes:     reg.Counter("dist_snapshot_bytes_total"),
		walRecords:    reg.Counter("dist_wal_records_total"),
		walReplayed:   reg.Counter("dist_wal_replayed_total"),
		recoveries:    reg.Counter("dist_recoveries_total"),
		snapNs:        reg.Histogram("dist_snapshot_ns"),
		recoverNs:     reg.Histogram("dist_recover_ns"),
		localBlocks:   reg.Gauge("dist_local_blocks"),
	}
	n.dom.Observe(reg)
	n.trace.init(reg.Tracer())
	n.snap.Swap(&n.dom, &tableSnapshot{}) // replaces nil
	if n.dataDir != "" {
		if err := os.MkdirAll(n.dataDir, 0o755); err != nil {
			srv.Close()
			return nil, err
		}
		if err := n.recoverFromDisk(); err != nil {
			srv.Close()
			return nil, fmt.Errorf("dist: recovering %s: %w", n.dataDir, err)
		}
	}
	if opts.StallThreshold > 0 {
		n.watchdog = n.dom.StartWatchdog(ebr.WatchdogConfig{
			Name:      "dist-node",
			Threshold: opts.StallThreshold,
			Obs:       reg,
			OnStall:   opts.OnStall,
		})
	}
	n.registerHandlers()
	srv.Serve()
	return n, nil
}

// Obs returns the node's observability registry: protocol counters, EBR
// grace-period metrics, and transport request counters. rcunode serves it
// over /metrics.
func (n *ArrayNode) Obs() *obs.Registry { return n.reg }

// Addr returns the node's listen address.
func (n *ArrayNode) Addr() string { return n.srv.Addr() }

// Close shuts the node down; in-flight requests fail at their callers. It is
// idempotent — a signal handler's drain and a deferred cleanup can both call
// it — and it closes the WAL last, after the listener has stopped accepting
// and every in-flight install has drained, so no acknowledged milestone can
// race the final sync.
func (n *ArrayNode) Close() error {
	n.closeOnce.Do(func() {
		if n.watchdog != nil {
			n.watchdog.Stop()
		}
		n.mu.Lock()
		peers := n.peers
		n.peers = nil
		n.mu.Unlock()
		for _, p := range peers {
			if p != nil {
				p.Close()
			}
		}
		n.closeErr = n.srv.Close()
		n.mu.Lock()
		wal := n.wal
		n.wal = nil
		n.mu.Unlock()
		if wal != nil {
			if err := wal.Close(); err != nil && n.closeErr == nil {
				n.closeErr = err
			}
		}
	})
	return n.closeErr
}

func (n *ArrayNode) registerHandlers() {
	// Every handler registers through HandleCtx with a protocol-level span
	// name: a traced request then records a node-side handler span under
	// that name, which the merged cluster trace links back to the driver's
	// client span by id. The dist handlers themselves stay context-free —
	// causality is the transport's job.
	h := func(id uint16, name string, fn func([]byte) ([]byte, error)) {
		n.srv.HandleCtx(id, name, func(p []byte, _ comm.TraceCtx) ([]byte, error) {
			return fn(p)
		})
	}
	h(amConfigure, "node.configure", n.handleConfigure)
	h(amAllocBlock, "node.alloc_block", n.handleAllocBlock)
	h(amInstall, "node.install_table", n.handleInstall)
	h(amLen, "node.len", n.handleLen)
	h(amLockAcquire, "node.lock_acquire", n.handleLockAcquire)
	h(amLockRelease, "node.lock_release", n.handleLockRelease)
	h(amRunWorkload, "node.run_workload", n.handleRunWorkload)
	h(amStats, "node.stats", n.handleStats)
	h(amAbort, "node.abort_resize", n.handleAbort)
	h(amFreeBlock, "node.free_block", n.handleFreeBlock)
	h(amReadTable, "node.read_table", n.handleReadTable)
	h(amRecoverState, "node.recover_state", n.handleRecoverState)
	h(amSnapshot, "node.snapshot", n.handleSnapshot)
	// Observability collectors. The driver always sends these untraced so a
	// trace dump does not pollute the rings it is dumping.
	h(amObsSnapshot, "node.obs_snapshot", n.handleObsSnapshot)
	h(amTraceDump, "node.trace_dump", n.handleTraceDump)
	h(amClockProbe, "node.clock_probe", n.handleClockProbe)
}

// handleClockProbe returns the node's trace-clock reading; the driver brackets
// it with its own clock to estimate this node's offset (RTT-midpoint model).
func (n *ArrayNode) handleClockProbe(payload []byte) ([]byte, error) {
	var w wbuf
	w.u64(uint64(n.trace.tr.Now()))
	return w.b, nil
}

// handleTraceDump returns the node's stable trace-ring events as JSON, stamped
// with the trace-clock reading the dump was cut at.
func (n *ArrayNode) handleTraceDump(payload []byte) ([]byte, error) {
	events := n.trace.tr.Events()
	body, err := json.Marshal(events)
	if err != nil {
		return nil, err
	}
	var w wbuf
	w.u64(uint64(n.trace.tr.Now()))
	return append(w.b, body...), nil
}

// handleObsSnapshot returns the node's full metrics snapshot as JSON — the
// remote scrape backing cluster-wide gates (watchdog warnings, SLO burn).
func (n *ArrayNode) handleObsSnapshot(payload []byte) ([]byte, error) {
	body, err := json.Marshal(n.reg.Snapshot())
	if err != nil {
		return nil, err
	}
	var w wbuf
	w.u64(uint64(n.trace.tr.Now()))
	return append(w.b, body...), nil
}

// SetInstallHook registers a callback run after every region publication of
// an incremental install, with the node's mutex released. The chaos and
// mid-install linearizability tests use it to pause or kill the node between
// region flips; production nodes never set it.
func (n *ArrayNode) SetInstallHook(hook func(step, total int)) {
	n.mu.Lock()
	n.installHook = hook
	n.mu.Unlock()
}

func (n *ArrayNode) handleConfigure(payload []byte) ([]byte, error) {
	cfg, err := decodeConfigure(payload)
	if err != nil {
		return nil, err
	}
	if cfg.BlockSize == 0 {
		return nil, fmt.Errorf("dist: zero block size")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.configured.Load() {
		return nil, fmt.Errorf("dist: node already configured")
	}
	// Peer connections carry a per-edge write-fencing identity so that,
	// after a crash-restart, the rejoining node's bumped generation fences
	// any Put its previous incarnation left in flight toward this peer.
	identity := newIdentity()
	const restartGen = 1
	peers := make([]*comm.Client, len(cfg.Addrs))
	for i, a := range cfg.Addrs {
		if uint32(i) == cfg.NodeID {
			continue
		}
		c, err := comm.DialConfig(a, comm.ClientConfig{
			Identity:   peerIdentity(identity, i),
			Generation: restartGen,
			Peer:       fmt.Sprintf("n%d", i),
			Obs:        n.reg,
		})
		if err != nil {
			for _, p := range peers {
				if p != nil {
					p.Close()
				}
			}
			return nil, fmt.Errorf("dist: node %d dialing peer %d (%s): %w", cfg.NodeID, i, a, err)
		}
		peers[i] = c
	}
	if n.dataDir != "" {
		conf := nodeConf{
			NodeID:     cfg.NodeID,
			BlockSize:  cfg.BlockSize,
			Identity:   identity,
			RestartGen: restartGen,
			Addrs:      cfg.Addrs,
		}
		w, err := durable.Create(walPath(n.dataDir, 1))
		if err == nil {
			err = persistConf(n.dataDir, conf)
		}
		if err != nil {
			for _, p := range peers {
				if p != nil {
					p.Close()
				}
			}
			return nil, fmt.Errorf("dist: persisting node config: %w", err)
		}
		n.wal = w
		n.walSeq = 1
	}
	n.id = cfg.NodeID
	n.blockSize = int(cfg.BlockSize)
	n.identity = identity
	n.restartGen = restartGen
	n.peers = peers
	n.trace.ring = n.trace.tr.Ring(int(cfg.NodeID), 0)
	n.trace.lockRing = n.trace.tr.Ring(int(cfg.NodeID), 1)
	n.configured.Store(true)
	return nil, nil
}

// allocEntry is one row of the alloc-dedup ledger: the segment a request id
// produced and the fencing token of the resize that asked for it.
type allocEntry struct {
	seg   uint64
	fence uint64
}

// handleAllocBlock allocates one block segment. The request id makes it
// idempotent: a retried RPC (response lost, connection reset) returns the
// segment the first attempt created instead of leaking a second one. The
// fence token orders the request against install/abort milestones: an alloc
// at or below the highest fence seen is a straggler from a resize that has
// already committed, aborted, or been superseded, and allocating for it
// would leak a segment nobody will ever free.
func (n *ArrayNode) handleAllocBlock(payload []byte) ([]byte, error) {
	if !n.configured.Load() {
		return nil, fmt.Errorf("dist: node not configured")
	}
	reqID, fence, err := decodeU64Pair(payload, "alloc request")
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if fence <= n.rs.maxFence {
		n.fenced.Inc()
		n.trace.ring.Instant(n.trace.nFenced, int64(fence))
		return nil, fmt.Errorf("dist: alloc fenced: token %d at or below milestone %d", fence, n.rs.maxFence)
	}
	e, ok := n.allocs[reqID]
	if !ok {
		e = allocEntry{seg: n.srv.AllocSegment(n.blockSize * elemBytes), fence: fence}
		n.allocs[reqID] = e
		n.localBlocks.Add(1)
	}
	var w wbuf
	w.u64(e.seg)
	return w.b, nil
}

// handleFreeBlock releases a segment allocated for an aborted resize. It is
// idempotent: freeing a segment that is already gone succeeds, so the
// driver's best-effort cleanup can be retried safely.
func (n *ArrayNode) handleFreeBlock(payload []byte) ([]byte, error) {
	reqID, seg, err := decodeU64Pair(payload, "free block")
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if e, ok := n.allocs[reqID]; ok && e.seg == seg {
		delete(n.allocs, reqID)
	}
	if n.srv.FreeSegment(seg) == nil {
		n.localBlocks.Add(-1)
	}
	return nil, nil
}

// pruneAllocsLocked reconciles the alloc ledger with an install or abort
// milestone at the given fence, so the ledger cannot grow for the node's
// lifetime. Entries above the fence (a newer in-flight resize) are kept
// untouched. For the rest, the milestone's authoritative table is ground
// truth: a segment the table references is (or just became) a live block —
// drop the ledger row, keep the segment — while a segment it does not
// reference belongs to a resize that can no longer commit (a commit would
// have installed a table containing it here), so the segment is freed. This
// also covers blocks the driver never learned about (alloc applied, every
// response lost): the abort's rollback table does not reference them, so
// they are freed here instead of leaking. The driver's explicit FreeBlock
// is idempotent against this. Callers hold n.mu, and any freed segment was
// never part of a table published on this node, so no reader can hold a
// reference to it.
func (n *ArrayNode) pruneAllocsLocked(fence uint64, table []BlockRef) {
	cand := map[uint64]struct{}{}
	for id, e := range n.allocs {
		if e.fence > fence {
			continue
		}
		cand[e.seg] = struct{}{}
		delete(n.allocs, id)
	}
	n.freeUnreferencedLocked(cand, table)
}

// freeUnreferencedLocked frees each candidate segment of this node that
// table does not reference. The candidates are a resize's own blocks — a
// few ledger rows, or what an aborted install added — so it scans table
// once against that small set rather than building a table-sized one. The
// scan runs from the end, where a grow's new blocks sit, and stops once
// every candidate is found. Callers hold n.mu; cand is consumed.
func (n *ArrayNode) freeUnreferencedLocked(cand map[uint64]struct{}, table []BlockRef) {
	for i := len(table) - 1; i >= 0 && len(cand) > 0; i-- {
		if table[i].Node == n.id {
			delete(cand, table[i].Seg)
		}
	}
	for seg := range cand {
		if n.srv.FreeSegment(seg) == nil {
			n.localBlocks.Add(-1)
		}
	}
}

// handleInstall is the node-local half of Algorithm 3's coforall body under
// EBR: clone (here: adopt the authoritative table), publish, advance the
// epoch, wait for this node's readers, reclaim the old snapshot. Fencing and
// idempotency wrap the paper's protocol for an unreliable fabric: a stale
// lease holder is rejected, a retried install is a no-op.
//
// An install carrying region ranges is applied incrementally: one table
// publication — each under its own grace period — per region step, with
// fence and abort-tombstone checks re-run between steps (the mutex is
// released after every flip, so an abort or a superseding holder can land
// mid-install). A fenced or aborted partial install stops with the table at
// a consistent region-boundary prefix, which the abort's rollback or the
// successor's install then owns; the region milestone makes retries resume
// after the last published step instead of re-flipping.
//
// Every step runs decide → WAL-append → adopt → side effects: rs.next decides
// it, a logged verdict is appended (and fsynced) before the new state and
// table are adopted, so a WAL failure rejects the step with both untouched:
// the state moves only together with a WAL record.
func (n *ArrayNode) handleInstall(payload []byte) ([]byte, error) {
	if !n.configured.Load() {
		return nil, fmt.Errorf("dist: node not configured")
	}
	q, err := decodeInstall(payload)
	if err != nil {
		return nil, err
	}
	steps := q.Regions
	if len(steps) == 0 {
		steps = []region.Step{{Lo: 0, Hi: len(q.Table)}}
	} else if err := region.Validate(steps, len(q.Table)); err != nil {
		return nil, err
	}
	n.mu.Lock()
	hook := n.installHook
	n.mu.Unlock()
	digest := installDigest(payload, q)
	for k, rg := range steps {
		rec := walRecord{
			Kind: recWALInstall, Fence: q.Fence, Epoch: q.Epoch,
			Step: uint32(k), Total: uint32(len(steps)), Digest: digest,
			Table: q.Table[:rg.Hi],
		}
		n.mu.Lock() // serializes installs on this node (WriteLock also does, belt and braces)
		next, v := n.rs.next(rec)
		if v == vFenced || v == vTombstoned {
			n.fenced.Inc()
			n.trace.ring.Instant(n.trace.nFenced, int64(q.Fence))
			err := fmt.Errorf("dist: install of aborted resize (token %d, epoch %d)", q.Fence, q.Epoch)
			if v == vFenced {
				err = fmt.Errorf("dist: install fenced: token %d superseded by %d", q.Fence, n.rs.maxFence)
			}
			n.mu.Unlock()
			return nil, err
		}
		if k == 0 {
			n.pruneAllocsLocked(q.Fence, q.Table)
		}
		if v == vApplied {
			n.mu.Unlock()
			return nil, nil
		}
		if v == vStepDone {
			n.mu.Unlock() // retried install resuming past a published step
			continue
		}
		// Write-ahead: the milestone is on disk before the flip is published
		// (and so before it can be acknowledged).
		proof, err := n.walAppendLocked(rec)
		if err != nil {
			n.mu.Unlock()
			return nil, err
		}
		// A commit adopts the applied pair in the same critical section as the
		// last flip: the mutex drops before the hook below, and a successor
		// landing in that window must not see this install claim applied
		// status afterwards.
		n.rs = next
		n.trace.ring.Begin(n.trace.nInstall)
		n.replaceTableLocked(proof, rec.Table)
		n.trace.ring.End(n.trace.nInstall)
		n.regionFlips.Inc()
		n.trace.ring.Instant(n.trace.nRegion, int64(k))
		if v == vCommit {
			n.installs.Inc()
		}
		n.mu.Unlock()
		if hook != nil {
			hook(k, len(steps))
		}
	}
	return nil, nil
}

// handleAbort rolls the table back to the pre-resize snapshot carried in the
// request — but only if this node applied the aborted install in full, or
// published a prefix of it (an incremental install caught mid-flight);
// nodes the install never reached (the usual reason for the abort) treat it
// as a no-op. Stale fencing tokens are ignored rather than rolled back: the
// superseding holder owns the table now.
func (n *ArrayNode) handleAbort(payload []byte) ([]byte, error) {
	if !n.configured.Load() {
		return nil, fmt.Errorf("dist: node not configured")
	}
	q, err := decodeInstall(payload)
	if err != nil {
		return nil, err
	}
	rec := walRecord{Kind: recWALAbort, Fence: q.Fence, Epoch: q.Epoch, Table: q.Table}
	n.mu.Lock()
	defer n.mu.Unlock()
	next, v := n.rs.next(rec)
	if v == vFenced {
		n.fenced.Inc()
		n.trace.ring.Instant(n.trace.nFenced, int64(q.Fence))
		return nil, nil
	}
	// Write-ahead, before any state (tombstone included) changes: a crash
	// after the ack replays this record and reconstructs both the tombstone
	// and the rollback.
	proof, err := n.walAppendLocked(rec)
	if err != nil {
		return nil, err
	}
	n.rs = next
	if v == vNotLanded {
		n.pruneAllocsLocked(q.Fence, q.Table)
		return nil, nil
	}
	n.trace.ring.Begin(n.trace.nAbort)
	abortedTable := n.replaceTableLocked(proof, q.Table)
	// Free the local blocks the aborted install had added — present in the
	// table being rolled back but not in the rollback table. Every entry of
	// their common prefix is in the rollback table, so only the entries past
	// it (the install's new blocks) are candidates. This runs after the
	// rollback's Synchronize, so no local reader is still inside a section
	// that saw the aborted table; the driver's own FreeBlock cleanup, if it
	// arrives too, is idempotent against it.
	shared := 0
	for shared < len(abortedTable) && shared < len(q.Table) && abortedTable[shared] == q.Table[shared] {
		shared++
	}
	added := map[uint64]struct{}{}
	for _, ref := range abortedTable[shared:] {
		if ref.Node == n.id {
			added[ref.Seg] = struct{}{}
		}
	}
	n.freeUnreferencedLocked(added, q.Table)
	n.pruneAllocsLocked(q.Fence, q.Table)
	n.trace.ring.End(n.trace.nAbort)
	n.aborts.Inc()
	return nil, nil
}

// replaceTableLocked publishes a new table under EBR, reclaims the old
// snapshot after this node's readers drain, and returns the old table.
// Callers hold n.mu and pass the proof that the milestone is already in the
// WAL.
func (n *ArrayNode) replaceTableLocked(_ logged, table []BlockRef) []BlockRef {
	u := n.snap.Swap(&n.dom, &tableSnapshot{table: table})
	n.dom.Synchronize()
	old := u.After()
	replaced := old.table
	old.Retire()
	old.table = nil // metadata poison
	return replaced
}

func (n *ArrayNode) handleLen(payload []byte) ([]byte, error) {
	g := n.dom.Enter()
	defer g.Exit()
	blocks := len(n.snap.Load().table)
	var w wbuf
	w.u32(uint32(blocks))
	return w.b, nil
}

// handleLockAcquire grants the cluster WriteLock lease. The reply is never
// an error frame for a held lock — "held" is a definitive answer the driver
// backs off on, not a fault — so transports can reserve errors for actual
// failures.
func (n *ArrayNode) handleLockAcquire(payload []byte) ([]byte, error) {
	ttlNanos, err := decodeU64(payload, "lease ttl")
	if err != nil {
		return nil, err
	}
	if ttlNanos == 0 {
		return nil, fmt.Errorf("dist: zero lease ttl")
	}
	now := time.Now()
	n.lockMu.Lock()
	defer n.lockMu.Unlock()
	if n.lockHolder != 0 && now.Before(n.lockExpiry) {
		return encodeLockReply(lockHeld, uint64(n.lockExpiry.Sub(now))), nil
	}
	// Free, or the holder's lease lapsed (crashed/partitioned driver):
	// supersede it. The old token stays fenced out forever because tokens
	// only grow.
	if n.lockHolder != 0 {
		n.leaseExpiries.Inc()
		n.trace.lockRing.Instant(n.trace.nLease, int64(n.lockHolder))
	}
	n.lockFence++
	n.lockHolder = n.lockFence
	n.lockExpiry = now.Add(time.Duration(ttlNanos))
	return encodeLockReply(lockGranted, n.lockHolder), nil
}

func (n *ArrayNode) handleLockRelease(payload []byte) ([]byte, error) {
	token, err := decodeU64(payload, "release token")
	if err != nil {
		return nil, err
	}
	n.lockMu.Lock()
	defer n.lockMu.Unlock()
	if n.lockHolder != token || token == 0 {
		return nil, fmt.Errorf("dist: release of unheld or superseded token %d (holder %d)", token, n.lockHolder)
	}
	n.lockHolder = 0
	return nil, nil
}

func (n *ArrayNode) handleStats(payload []byte) ([]byte, error) {
	s := NodeStats{
		Installs:    n.installs.Load(),
		Synchronize: n.dom.Synchronizes(),
		Retries:     n.dom.Retries(),
		LocalBlocks: uint32(n.localBlocks.Load()),
		Aborts:      n.aborts.Load(),
		Fenced:      n.fenced.Load(),
		RegionFlips: n.regionFlips.Load(),
		Snapshots:   n.snapshots.Load(),
		WALRecords:  n.walRecords.Load(),
		WALReplayed: n.walReplayed.Load(),
		Recoveries:  n.recoveries.Load(),
	}
	return s.encode(), nil
}

// handleReadTable returns the node's current block table under a read-side
// critical section — the convergence-audit RPC: after a chaos run kills a
// node between region flips, every survivor must report a table that is
// fully-old or fully-new, never a torn mix.
func (n *ArrayNode) handleReadTable(payload []byte) ([]byte, error) {
	g := n.dom.Enter()
	defer g.Exit()
	snap := n.snap.Load()
	snap.CheckLive()
	return encodeTable(snap.table), nil
}

// handleRunWorkload executes reads or updates locally, the way Chapel tasks
// run on their locale. Every operation runs inside a read-side critical
// section of this node's EBR domain, so concurrent Installs (resizes) are
// safe throughout.
func (n *ArrayNode) handleRunWorkload(payload []byte) ([]byte, error) {
	if !n.configured.Load() {
		return nil, fmt.Errorf("dist: node not configured")
	}
	q, err := decodeWorkload(payload)
	if err != nil {
		return nil, err
	}
	if q.Tasks == 0 || q.Tasks > 1024 {
		return nil, fmt.Errorf("dist: invalid task count %d", q.Tasks)
	}
	if q.Disjoint && q.RangeHi <= q.RangeLo {
		return nil, fmt.Errorf("dist: disjoint workload needs a range, got [%d,%d)", q.RangeLo, q.RangeHi)
	}

	var remote atomic.Uint64
	errs := make(chan error, q.Tasks)
	start := time.Now()
	var wg sync.WaitGroup
	for task := uint32(0); task < q.Tasks; task++ {
		wg.Add(1)
		go func(task uint32) {
			defer wg.Done()
			errs <- n.runTask(q, task, &remote)
		}(task)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, err
		}
	}
	resp := WorkloadResp{
		Ops:       uint64(q.Tasks) * q.OpsPerTask,
		Nanos:     uint64(time.Since(start).Nanoseconds()),
		RemoteOps: remote.Load(),
	}
	return resp.encode(), nil
}

func (n *ArrayNode) runTask(q WorkloadReq, task uint32, remote *atomic.Uint64) error {
	seed := q.Seed ^ uint64(n.id)<<40 ^ uint64(task)<<8
	n.mu.Lock()
	peers := n.peers // immutable after configure
	n.mu.Unlock()
	// Disjoint mode: one global stripe per (node, task) pair over the
	// requested range, fixed for the whole run.
	var fixedLo, fixedHi int
	if q.Disjoint {
		nodes := len(peers)
		slot := int(n.id)*int(q.Tasks) + int(task)
		slots := nodes * int(q.Tasks)
		span := int(q.RangeHi-q.RangeLo) / slots
		if span == 0 {
			return fmt.Errorf("dist: range [%d,%d) too small for %d slots",
				q.RangeLo, q.RangeHi, slots)
		}
		fixedLo = int(q.RangeLo) + slot*span
		fixedHi = fixedLo + span
	}

	var stream *workload.IndexStream
	lastCap := 0
	for op := uint64(0); op < q.OpsPerTask; op++ {
		// The read section lives in its own closure so the guard exit is
		// deferred: CheckLive panics on a poisoned snapshot, and a bare
		// Exit after it would leak the reader and wedge Synchronize.
		ref, off, err := func() (BlockRef, int, error) {
			g := n.dom.Enter()
			defer g.Exit()
			snap := n.snap.Load()
			snap.CheckLive()
			capacity := len(snap.table) * n.blockSize
			if capacity == 0 {
				return BlockRef{}, 0, fmt.Errorf("dist: workload on empty array")
			}
			switch {
			case q.Disjoint:
				if fixedHi > capacity {
					return BlockRef{}, 0, fmt.Errorf("dist: disjoint range [%d,%d) exceeds capacity %d",
						fixedLo, fixedHi, capacity)
				}
				if stream == nil {
					stream = workload.NewIndexStreamRange(workload.Pattern(q.Pattern), seed, fixedLo, fixedHi)
				}
			case stream == nil:
				stream = workload.NewIndexStream(workload.Pattern(q.Pattern), seed, capacity)
			case capacity != lastCap:
				stream.SetN(capacity)
			}
			lastCap = capacity
			idx := stream.Next()
			return snap.table[idx/n.blockSize], (idx % n.blockSize) * elemBytes, nil
		}()
		if err != nil {
			return err
		}
		// The block reference outlives the section: blocks are stable
		// across grows, exactly as in the in-process array.
		if ref.Node == n.id {
			err = n.localOp(ref.Seg, off, q.Update, int64(op))
		} else {
			remote.Add(1)
			err = n.remoteOpOn(peers, ref, off, q.Update, int64(op))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (n *ArrayNode) localOp(seg uint64, off int, update bool, v int64) error {
	b, err := n.srv.Segment(seg)
	if err != nil {
		return err
	}
	if update {
		binary.BigEndian.PutUint64(b[off:], uint64(v))
		return nil
	}
	_ = binary.BigEndian.Uint64(b[off:])
	return nil
}

func (n *ArrayNode) remoteOpOn(peers []*comm.Client, ref BlockRef, off int, update bool, v int64) error {
	var peer *comm.Client
	if int(ref.Node) < len(peers) {
		peer = peers[ref.Node]
	}
	if peer == nil {
		return fmt.Errorf("dist: no peer connection to node %d", ref.Node)
	}
	if update {
		var buf [elemBytes]byte
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		return peer.Put(ref.Seg, off, buf[:])
	}
	_, err := peer.Get(ref.Seg, off, elemBytes)
	return err
}
