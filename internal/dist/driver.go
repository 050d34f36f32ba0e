package dist

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rcuarray/internal/comm"
	"rcuarray/internal/obs"
	"rcuarray/internal/region"
	"rcuarray/internal/xsync"
)

// Options tunes the driver's resilience envelope. The zero value of any
// field selects the default in parentheses.
type Options struct {
	// DialTimeout bounds each connection attempt (5s).
	DialTimeout time.Duration
	// CallTimeout is the deadline for one control-plane RPC attempt —
	// alloc, install, lock, stats, element read/write (2s).
	CallTimeout time.Duration
	// WorkloadTimeout bounds RunWorkload, which may legitimately run for
	// a long time (0 = no deadline). Workloads are not retried: they are
	// not idempotent.
	WorkloadTimeout time.Duration
	// Retries is how many times a transient RPC failure is retried after
	// the first attempt, with jittered exponential backoff (4).
	Retries int
	// RetryBase/RetryMax bound the backoff between retries (5ms / 250ms).
	RetryBase, RetryMax time.Duration
	// LockTTL is the WriteLock lease duration. A driver that dies mid-
	// resize stops blocking the cluster after this long (10s).
	LockTTL time.Duration
	// AcquireTimeout is the total budget for winning the lease, covering
	// both contention and a predecessor's lease expiry (30s).
	AcquireTimeout time.Duration
	// Seed decorrelates retry jitter and, with Faults, replays a fault
	// schedule (1).
	Seed uint64
	// RegionBlocks is the per-region granularity of incremental installs:
	// a Grow publishes its new table one region of this many blocks at a
	// time, each flip under its own grace period on every node (8, also
	// when negative).
	RegionBlocks int
	// Faults injects seeded connection faults into every driver
	// connection, keyed by node index; Part is the partition switch.
	// Both nil outside chaos runs.
	Faults *comm.Injector
	Part   *comm.Partition
	// Obs, when set, receives the driver's retry/redial/transient-error
	// counters, per-(op,peer) RPC latency histograms for its node
	// connections, resize-phase histograms and trace spans, and — with
	// Faults — the injector's per-kind fault counts. Nil leaves the driver
	// unobserved (nil).
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = 2 * time.Second
	}
	if o.Retries == 0 {
		o.Retries = 4
	}
	if o.RetryBase == 0 {
		o.RetryBase = 5 * time.Millisecond
	}
	if o.RetryMax == 0 {
		o.RetryMax = 250 * time.Millisecond
	}
	if o.LockTTL == 0 {
		o.LockTTL = 10 * time.Second
	}
	if o.AcquireTimeout == 0 {
		o.AcquireTimeout = 30 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.RegionBlocks <= 0 {
		o.RegionBlocks = region.DefaultBlocks
	}
	return o
}

// Driver orchestrates a distributed RCUArray: it holds the authoritative
// block table, performs resizes with the cluster WriteLock lease protocol,
// and fans workloads out to the nodes. Element data never passes through the
// driver except via the explicit Read/Write convenience accessors.
//
// A Driver is safe for concurrent use; resizes serialize on the remote
// WriteLock exactly like concurrent resizers in the in-process array. Every
// control-plane RPC has a deadline and bounded, idempotency-safe retries; a
// resize that cannot reach the whole cluster aborts cleanly (tables rolled
// back by fencing epoch, blocks freed, lease released) while reads keep
// serving the old snapshot.
type Driver struct {
	addrs     []string
	blockSize int
	opts      Options

	connMu    sync.Mutex // guards clients/connGen for redial-on-failure
	clients   []*comm.Client
	connIdent []uint64 // per-slot write-fencing identity, fixed at Connect
	connGen   []uint64 // per-slot connection generation, bumped on redial

	closeOnce sync.Once
	closed    atomic.Bool // set before clients are torn down; redial refuses past it

	mu    sync.Mutex // guards table/epoch against concurrent local mutation
	table []BlockRef
	epoch uint64 // committed table version; install fan-outs carry epoch+1
	next  int    // round-robin cursor (the paper's NextLocaleId)

	o *driverObs // nil without Options.Obs
}

// Connect dials the nodes with default options. See ConnectOpts.
func Connect(addrs []string, blockSize int) (*Driver, error) {
	return ConnectOpts(addrs, blockSize, Options{})
}

// identSeq feeds newIdentity; the time component keeps identities from two
// driver processes that share long-lived nodes from colliding.
var identSeq atomic.Uint64

func newIdentity() uint64 {
	return uint64(time.Now().UnixNano())<<16 | (identSeq.Add(1) & 0xFFFF)
}

// ConnectOpts dials the nodes, assigns ids in address order, and configures
// each node with its identity and peer list.
func ConnectOpts(addrs []string, blockSize int, opts Options) (*Driver, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("dist: no node addresses")
	}
	if blockSize <= 0 {
		return nil, fmt.Errorf("dist: invalid block size %d", blockSize)
	}
	d := &Driver{addrs: addrs, blockSize: blockSize, opts: opts.withDefaults()}
	if d.opts.Obs != nil {
		d.o = newDriverObs(d.opts.Obs, d.opts.Seed)
		if d.opts.Faults != nil {
			d.opts.Faults.Observe(d.opts.Obs)
		}
	}
	d.clients = make([]*comm.Client, len(addrs))
	d.connIdent = make([]uint64, len(addrs))
	d.connGen = make([]uint64, len(addrs))
	for i, a := range addrs {
		d.connIdent[i] = newIdentity()
		d.connGen[i] = 1
		c, err := d.dialNode(i)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("dist: dialing node %d (%s): %w", i, a, err)
		}
		d.clients[i] = c
	}
	for i := range d.clients {
		req := configureReq{NodeID: uint32(i), BlockSize: uint32(blockSize), Addrs: addrs}
		if _, err := d.am(i, amConfigure, req.encode()); err != nil {
			d.Close()
			return nil, fmt.Errorf("dist: configuring node %d: %w", i, err)
		}
	}
	return d, nil
}

// clientConfig builds the dial configuration for a node slot, carrying the
// slot's write-fencing identity and current generation. Callers either hold
// connMu or have exclusive access to the driver (Connect).
func (d *Driver) clientConfig(node int) comm.ClientConfig {
	return comm.ClientConfig{
		DialTimeout: d.opts.DialTimeout,
		CallTimeout: d.opts.CallTimeout,
		Faults:      d.opts.Faults,
		FaultKey:    uint64(node),
		Part:        d.opts.Part,
		Identity:    d.connIdent[node],
		Generation:  d.connGen[node],
		Obs:         d.opts.Obs,
		Peer:        fmt.Sprintf("n%d", node),
		TraceTrack:  node,
	}
}

// newTraceCtx mints the root trace context for one logical driver operation
// (a Grow, a Read, a bulk batch). Zero — untraced, wire bytes unchanged —
// without a registry or with observability off; otherwise the root span id
// doubles as the trace id. Minting draws from the seeded SpanSource, so runs
// that issue operations in the same order get identical ids.
func (d *Driver) newTraceCtx() comm.TraceCtx {
	if d.o == nil || !obs.On() {
		return comm.TraceCtx{}
	}
	id := d.o.spans.Next()
	return comm.TraceCtx{TraceID: id, SpanID: id}
}

// childCtx derives the k-th child span of tc — a pure function, so concurrent
// fan-out goroutines can each compute their own id without coordination.
// Untraced in, untraced out.
func childCtx(tc comm.TraceCtx, k int) comm.TraceCtx {
	if !tc.Traced() {
		return tc
	}
	return comm.TraceCtx{TraceID: tc.TraceID, SpanID: obs.DeriveSpan(tc.SpanID, k)}
}

// Child-span slots of a Grow's root context. Alloc and free fan-outs add the
// block index to their base, so every RPC of one resize has a distinct,
// replay-stable span id.
const (
	growSpanLock    = 1
	growSpanRelease = 2
	growSpanInstall = 1 << 20 // +node
	growSpanAbort   = 2 << 20 // +node
	growSpanAlloc   = 4 << 20 // +block index (bounded by the 1<<20 resize limit)
	growSpanFree    = 5 << 20 // +block index
)

// dialNode performs the initial dial of one node with the same bounded-retry
// envelope as an RPC: the dial's hello exchange crosses the faulted
// connection too, and a single injected reset must not doom Connect.
func (d *Driver) dialNode(node int) (*comm.Client, error) {
	backoff := xsync.Expo{
		Base: d.opts.RetryBase,
		Max:  d.opts.RetryMax,
		Seed: d.opts.Seed ^ uint64(node)<<16 ^ 0xd1a1,
	}
	var err error
	for attempt := 0; attempt <= d.opts.Retries; attempt++ {
		if attempt > 0 {
			backoff.Sleep()
			d.o.noteRetry()
			d.connGen[node]++ // the failed dial may have registered its generation
		}
		var c *comm.Client
		if c, err = comm.DialConfig(d.addrs[node], d.clientConfig(node)); err == nil {
			return c, nil
		}
		if !comm.IsTransient(err) {
			return nil, err
		}
		d.o.noteTransient()
	}
	return nil, err
}

// Close drops the driver's connections (nodes keep running). It is
// idempotent and tolerates partially-completed dials.
func (d *Driver) Close() {
	d.closeOnce.Do(func() {
		// The closed flag goes up before the client table is torn down:
		// redial observes it both before dialing and before publishing a
		// fresh connection, so a retry loop racing Close — or a node that
		// restarts just as the driver shuts down — cannot leave a freshly
		// dialed connection behind for nobody.
		d.closed.Store(true)
		d.connMu.Lock()
		clients := d.clients
		d.clients = nil
		d.connMu.Unlock()
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	})
}

// client returns the current connection to a node, or nil after Close.
func (d *Driver) client(node int) *comm.Client {
	d.connMu.Lock()
	defer d.connMu.Unlock()
	if d.clients == nil {
		return nil
	}
	return d.clients[node]
}

// redial replaces a broken connection. Concurrent redials of the same node
// coalesce: whoever holds the lock first dials, later callers see the fresh
// client. The closed flag is checked before dialing — a Close racing a
// coalesced redial (or a node restarting right after logical shutdown) must
// not trigger a dial to a driver-less cluster — and again before publishing,
// covering a Close that began while the dial was in flight.
func (d *Driver) redial(node int, broken *comm.Client) (*comm.Client, error) {
	d.connMu.Lock()
	defer d.connMu.Unlock()
	if d.closed.Load() || d.clients == nil {
		return nil, fmt.Errorf("dist: driver closed")
	}
	if cur := d.clients[node]; cur != broken && cur != nil && !cur.Broken() {
		return cur, nil
	}
	// Bump the write-fencing generation before dialing: once the node
	// processes the new hello, any Put still in flight on the broken
	// connection is rejected instead of landing after writes acknowledged
	// on this replacement.
	d.connGen[node]++
	if d.o != nil {
		d.o.redials.Inc()
	}
	c, err := comm.DialConfig(d.addrs[node], d.clientConfig(node))
	if err != nil {
		if comm.IsTransient(err) {
			d.o.noteTransient()
		}
		return nil, err
	}
	if d.closed.Load() || d.clients == nil {
		c.Close()
		return nil, fmt.Errorf("dist: driver closed")
	}
	if old := d.clients[node]; old != nil {
		old.Close()
	}
	d.clients[node] = c
	return c, nil
}

// am issues one control-plane RPC with deadline, bounded retries, jittered
// exponential backoff, and redial of broken connections. Only transient
// (transport-level) failures are retried; a remote handler's answer — even
// an error — is definitive. Every retried RPC in the protocol is idempotent
// by construction (request ids, fencing epochs), so "response lost after the
// node acted" cannot double-apply.
func (d *Driver) am(node int, handler uint16, payload []byte) ([]byte, error) {
	return d.amCtx(node, handler, payload, comm.TraceCtx{})
}

// amCtx is am carrying a causal trace context. Every attempt of one logical
// RPC shares the span id, so a retried call renders as one client span per
// attempt linked to whichever handler spans the node recorded — the merged
// trace shows the retry storm instead of hiding it.
func (d *Driver) amCtx(node int, handler uint16, payload []byte, tc comm.TraceCtx) ([]byte, error) {
	backoff := xsync.Expo{
		Base: d.opts.RetryBase,
		Max:  d.opts.RetryMax,
		Seed: d.opts.Seed ^ uint64(node)<<32 ^ uint64(handler),
	}
	var err error
	for attempt := 0; attempt <= d.opts.Retries; attempt++ {
		if attempt > 0 {
			backoff.Sleep()
			d.o.noteRetry()
		}
		c := d.client(node)
		if c == nil {
			return nil, fmt.Errorf("dist: driver closed")
		}
		if c.Broken() {
			if c, err = d.redial(node, c); err != nil {
				continue
			}
		}
		var reply []byte
		reply, err = c.CallAMCtx(handler, payload, d.opts.CallTimeout, tc)
		if err == nil || !comm.IsTransient(err) {
			return reply, err
		}
		d.o.noteTransient()
	}
	return nil, fmt.Errorf("dist: node %d RPC %d failed after %d attempts: %w",
		node, handler, d.opts.Retries+1, err)
}

// Nodes returns the cluster size.
func (d *Driver) Nodes() int { return len(d.addrs) }

// BlockSize returns the element capacity per block.
func (d *Driver) BlockSize() int { return d.blockSize }

// Len returns the array capacity in elements (driver view).
func (d *Driver) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.table) * d.blockSize
}

// AcquireLock takes the cluster WriteLock lease on node 0 and returns the
// fencing token. It retries while the lock is held, up to the configured
// AcquireTimeout; a holder whose lease lapsed is superseded transparently.
func (d *Driver) AcquireLock() (uint64, error) {
	return d.acquireLock(comm.TraceCtx{})
}

func (d *Driver) acquireLock(tc comm.TraceCtx) (uint64, error) {
	deadline := time.Now().Add(d.opts.AcquireTimeout)
	backoff := xsync.Expo{Base: d.opts.RetryBase, Max: d.opts.RetryMax, Seed: d.opts.Seed ^ 0x10cc}
	for {
		reply, err := d.amCtx(0, amLockAcquire, encodeU64(uint64(d.opts.LockTTL)), tc)
		if err != nil {
			return 0, fmt.Errorf("dist: acquiring WriteLock: %w", err)
		}
		status, v, err := decodeLockReply(reply)
		if err != nil {
			return 0, fmt.Errorf("dist: malformed lock reply: %w", err)
		}
		if status == lockGranted {
			return v, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("dist: WriteLock still held after %v (remaining lease %v)",
				d.opts.AcquireTimeout, time.Duration(v))
		}
		backoff.Sleep()
	}
}

// ReleaseLock releases the lease identified by token. Releasing a lapsed or
// superseded token fails (the lock is no longer ours to release).
func (d *Driver) ReleaseLock(token uint64) error {
	return d.releaseLock(token, comm.TraceCtx{})
}

func (d *Driver) releaseLock(token uint64, tc comm.TraceCtx) error {
	_, err := d.amCtx(0, amLockRelease, encodeU64(token), tc)
	return err
}

// allocated tracks one block allocation of an in-flight resize so that an
// abort can free it.
type allocated struct {
	owner int
	reqID uint64
	ref   BlockRef
}

// Grow expands the array by at least additional elements: acquire the
// cluster WriteLock lease on node 0, allocate blocks round-robin
// (idempotently, keyed by request id), install the fenced new table on every
// node in parallel, release. Concurrent node-side workloads keep running
// throughout (their EBR sections protect each access).
//
// If any step cannot reach its node within the retry budget, the resize
// aborts cleanly: installed tables are rolled back by fencing epoch,
// allocated blocks are freed, the lease is released, and the pre-resize
// snapshot keeps serving reads everywhere.
func (d *Driver) Grow(additional int) error {
	if additional <= 0 {
		return fmt.Errorf("dist: Grow by %d", additional)
	}
	nBlocks := (additional + d.blockSize - 1) / d.blockSize
	if nBlocks >= 1<<20 {
		return fmt.Errorf("dist: Grow of %d blocks exceeds the per-resize limit", nBlocks)
	}

	// Resize instrumentation: the lock-wait is a histogram only; ring spans
	// start after the lease is won (growSpans documents why). The trace
	// context minted here is the resize's root: every RPC the resize issues —
	// lease, alloc fan-out, install, abort, free — carries a child span
	// derived from it, so the merged cluster trace hangs the whole protocol
	// off one trace id.
	var gs growSpans
	gs.start(d.o)
	tc := d.newTraceCtx()
	token, err := d.acquireLock(childCtx(tc, growSpanLock))
	if err != nil {
		return err
	}
	gs.acquired()

	// d.table is only ever replaced, never written in place, so holding its
	// slice is an O(1) snapshot: it doubles as the abort's rollback table,
	// and the new table is built outside the lock on a copy with room for
	// the new blocks (the capacity clip makes the copy).
	d.mu.Lock()
	oldTable := d.table
	cursor := d.next
	epoch := d.epoch + 1
	d.mu.Unlock()
	table := slices.Grow(oldTable[:len(oldTable):len(oldTable)], nBlocks)

	var allocs []allocated
	fail := func(stage string, cause error) error {
		gs.abort()
		d.abortResize(token, epoch, oldTable, allocs, tc)
		if rerr := d.releaseLock(token, childCtx(tc, growSpanRelease)); rerr != nil {
			// Best effort: a lapsed lease has already released itself.
			_ = rerr
		}
		return fmt.Errorf("dist: resize aborted at %s: %w", stage, cause)
	}

	gs.beginAlloc()
	// Allocations are independent (each is idempotent under its own request
	// id), so they pipeline: up to growAllocFanout in flight at once, all
	// riding the per-connection write queues, results committed to the table
	// in index order so the block layout is identical to the serial protocol.
	type allocResult struct {
		err error
		ref BlockRef
	}
	results := make([]allocResult, nBlocks)
	sem := make(chan struct{}, growAllocFanout)
	var aw sync.WaitGroup
	for i := 0; i < nBlocks; i++ {
		owner := (cursor + i) % len(d.addrs)
		// The request id is unique per (lease token, block): a retry of
		// this RPC reuses it, so the node cannot leak a second segment. The
		// token rides along so the node can fence straggler allocs and
		// prune its dedup ledger once this resize commits or aborts.
		reqID := token<<20 | uint64(i)
		aw.Add(1)
		sem <- struct{}{}
		go func(i, owner int, reqID uint64) {
			defer aw.Done()
			defer func() { <-sem }()
			reply, err := d.amCtx(owner, amAllocBlock, encodeU64Pair(reqID, token), childCtx(tc, growSpanAlloc+i))
			switch {
			case err != nil:
				results[i].err = fmt.Errorf("allocating block on node %d: %w", owner, err)
			case len(reply) != 8:
				results[i].err = fmt.Errorf("malformed alloc reply (%d bytes)", len(reply))
			default:
				results[i].ref = BlockRef{Node: uint32(owner), Seg: binary.BigEndian.Uint64(reply)}
			}
		}(i, owner, reqID)
	}
	aw.Wait()
	var allocErr error
	for i := 0; i < nBlocks; i++ {
		// Every successful allocation is recorded even past the first
		// failure, so the abort path frees all of them; the failed request's
		// own segment (if the reply was merely lost) is fenced and reclaimed
		// by the node via the lease token.
		if results[i].err != nil {
			if allocErr == nil {
				allocErr = results[i].err
			}
			continue
		}
		owner := (cursor + i) % len(d.addrs)
		allocs = append(allocs, allocated{owner: owner, reqID: token<<20 | uint64(i), ref: results[i].ref})
		if allocErr == nil {
			table = append(table, results[i].ref)
		}
	}
	if allocErr != nil {
		return fail("allocation", allocErr)
	}
	cursor += nBlocks
	gs.endAlloc()

	gs.beginInstall()
	regions := d.regionPlan(len(oldTable), len(table))
	if err := d.installAll(installReq{Fence: token, Epoch: epoch, Table: table, Regions: regions}, tc); err != nil {
		return fail("install", err)
	}
	gs.endInstall()

	d.mu.Lock()
	d.table = table
	d.next = cursor
	d.epoch = epoch
	d.mu.Unlock()
	gs.commit()
	if err := d.releaseLock(token, childCtx(tc, growSpanRelease)); err != nil {
		// The resize committed; a failed release only means the lease
		// must lapse before the next resize. Surface nothing.
		_ = err
	}
	return nil
}

// regionPlan splits a grow's new blocks [oldLen, newLen) into the region
// steps an incremental install publishes one at a time (region.Plan). A plan
// of one step is sent as nil: one region is a single-step install, and the
// empty encoding keeps those frames byte-identical to the pre-region
// protocol.
func (d *Driver) regionPlan(oldLen, newLen int) []region.Step {
	plan := region.Plan(oldLen, newLen, d.opts.RegionBlocks)
	if len(plan) == 1 {
		return nil
	}
	return plan
}

// installAll replicates the fenced table to every node in parallel — the
// coforall of Algorithm 3 over TCP, with per-node retries.
func (d *Driver) installAll(q installReq, tc comm.TraceCtx) error {
	payload := q.encode()
	errs := make(chan error, len(d.addrs))
	for i := range d.addrs {
		i := i
		go func() {
			_, err := d.amCtx(i, amInstall, payload, childCtx(tc, growSpanInstall+i))
			if err != nil {
				err = fmt.Errorf("installing snapshot on node %d: %w", i, err)
			}
			errs <- err
		}()
	}
	var firstErr error
	for range d.addrs {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// abortResize is the cleanup half of graceful degradation: roll back any
// node that already applied the new table (same fencing token and epoch),
// then free the blocks allocated for the failed resize. Both halves are
// idempotent on the node side, so this is safe to run against nodes in any
// state; nodes that are unreachable stay on whatever snapshot they hold and
// cannot diverge the survivors.
func (d *Driver) abortResize(token, epoch uint64, oldTable []BlockRef, allocs []allocated, tc comm.TraceCtx) {
	payload := installReq{Fence: token, Epoch: epoch, Table: oldTable}.encode()
	var wg sync.WaitGroup
	for i := range d.addrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d.amCtx(i, amAbort, payload, childCtx(tc, growSpanAbort+i))
		}(i)
	}
	wg.Wait()
	for j, a := range allocs {
		d.amCtx(a.owner, amFreeBlock, encodeU64Pair(a.reqID, a.ref.Seg), childCtx(tc, growSpanFree+j))
	}
}

// locate maps a global element index to its block and byte offset.
func (d *Driver) locate(idx int) (BlockRef, int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if idx < 0 || idx >= len(d.table)*d.blockSize {
		return BlockRef{}, 0, fmt.Errorf("dist: index %d out of range [0,%d)", idx, len(d.table)*d.blockSize)
	}
	return d.table[idx/d.blockSize], (idx % d.blockSize) * elemBytes, nil
}

// elemOp runs one element Get/Put with the same retry envelope as control-
// plane RPCs. Retrying is safe: reads are idempotent, and a write retried
// within one logical operation rewrites the same value. Across operations,
// the node orders writes for us — frames on one connection apply in wire
// order, and a write stranded on a connection this driver has redialed past
// is rejected by its superseded fencing generation — so a stalled, abandoned
// Put can never overwrite a later acknowledged write.
func (d *Driver) elemOp(node int, op func(c *comm.Client) error) error {
	backoff := xsync.Expo{Base: d.opts.RetryBase, Max: d.opts.RetryMax, Seed: d.opts.Seed ^ uint64(node)}
	var err error
	for attempt := 0; attempt <= d.opts.Retries; attempt++ {
		if attempt > 0 {
			backoff.Sleep()
			d.o.noteRetry()
		}
		c := d.client(node)
		if c == nil {
			return fmt.Errorf("dist: driver closed")
		}
		if c.Broken() {
			if c, err = d.redial(node, c); err != nil {
				continue
			}
		}
		if err = op(c); err == nil || !comm.IsTransient(err) {
			return err
		}
		d.o.noteTransient()
	}
	return err
}

// Read fetches element idx through the owning node.
func (d *Driver) Read(idx int) (int64, error) {
	ref, off, err := d.locate(idx)
	if err != nil {
		return 0, err
	}
	tc := d.newTraceCtx()
	var v int64
	err = d.elemOp(int(ref.Node), func(c *comm.Client) error {
		b, err := c.GetCtx(ref.Seg, off, elemBytes, tc)
		if err == nil {
			v = int64(binary.BigEndian.Uint64(b))
		}
		return err
	})
	return v, err
}

// Write stores v at element idx through the owning node. A nil return is an
// acknowledgement: the write is durable on the owning node.
func (d *Driver) Write(idx int, v int64) error {
	ref, off, err := d.locate(idx)
	if err != nil {
		return err
	}
	tc := d.newTraceCtx()
	var buf [elemBytes]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v))
	return d.elemOp(int(ref.Node), func(c *comm.Client) error {
		return c.PutCtx(ref.Seg, off, buf[:], tc)
	})
}

// NodeLen asks one node for its local view of the block count (replication
// consistency checks).
func (d *Driver) NodeLen(node int) (int, error) {
	reply, err := d.am(node, amLen, nil)
	if err != nil {
		return 0, err
	}
	if len(reply) != 4 {
		return 0, fmt.Errorf("dist: malformed len reply")
	}
	return int(binary.BigEndian.Uint32(reply)) * d.blockSize, nil
}

// NodeTable asks one node for its current block table — the convergence
// audit the chaos tests run after killing a node mid-install: every
// surviving node must hold either the full old table or the full new one
// (or, mid-recovery, a region-boundary prefix between them), never a torn
// mix of blocks from both.
func (d *Driver) NodeTable(node int) ([]BlockRef, error) {
	reply, err := d.am(node, amReadTable, nil)
	if err != nil {
		return nil, err
	}
	return decodeTable(reply)
}

// RunWorkload executes the request on every node in parallel and returns
// the per-node results in node order. Workloads are not retried (they are
// not idempotent) and run under WorkloadTimeout, not CallTimeout.
func (d *Driver) RunWorkload(q WorkloadReq) ([]WorkloadResp, error) {
	payload := q.encode()
	tc := d.newTraceCtx()
	out := make([]WorkloadResp, len(d.addrs))
	errs := make(chan error, len(d.addrs))
	for i := range d.addrs {
		i := i
		go func() {
			c := d.client(i)
			if c == nil {
				errs <- fmt.Errorf("dist: driver closed")
				return
			}
			if c.Broken() {
				var err error
				if c, err = d.redial(i, c); err != nil {
					errs <- err
					return
				}
			}
			reply, err := c.CallAMCtx(amRunWorkload, payload, d.opts.WorkloadTimeout, childCtx(tc, i))
			if err == nil {
				out[i], err = decodeWorkloadResp(reply)
			}
			errs <- err
		}()
	}
	var firstErr error
	for range d.addrs {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Stats collects every node's counters.
func (d *Driver) Stats() ([]NodeStats, error) {
	out := make([]NodeStats, len(d.addrs))
	for i := range d.addrs {
		reply, err := d.am(i, amStats, nil)
		if err != nil {
			return nil, err
		}
		if out[i], err = decodeStats(reply); err != nil {
			return nil, err
		}
	}
	return out, nil
}
