package dist

import (
	"encoding/binary"
	"fmt"

	"rcuarray/internal/region"
)

// Active-message handler ids served by every array node.
const (
	amConfigure    uint16 = 10 // node id, block size, peer addresses
	amAllocBlock   uint16 = 11 // (request id, fence token) -> segment id (idempotent, fenced)
	amInstall      uint16 = 12 // fencing token, epoch, new block table (RCU_Write on the node)
	amLen          uint16 = 13 // -> local view: #blocks
	amLockAcquire  uint16 = 14 // cluster WriteLock lease (node 0 only): ttl -> granted(token) | held
	amLockRelease  uint16 = 15 // token
	amRunWorkload  uint16 = 16 // execute reads/updates locally
	amStats        uint16 = 17 // -> node counters
	amAbort        uint16 = 18 // fencing token, epoch, rollback table (resize abort)
	amFreeBlock    uint16 = 19 // request id, segment id (idempotent free)
	amReadTable    uint16 = 20 // -> the node's current block table (convergence audits)
	amRecoverState uint16 = 21 // -> fencing milestones + table (restart catch-up)
	amSnapshot     uint16 = 22 // stream a durable snapshot to disk -> stats
	amObsSnapshot  uint16 = 23 // -> [8B trace-clock now][JSON obs.Snapshot] (remote metrics scrape)
	amTraceDump    uint16 = 24 // -> [8B trace-clock now][JSON []obs.TraceEvent] (cluster trace collection)
	amClockProbe   uint16 = 25 // -> [8B trace-clock now] (clock-offset estimation)
)

// decodeClockReply splits an amObsSnapshot/amTraceDump/amClockProbe reply into
// the node's trace-clock reading and the JSON body (empty for a probe).
func decodeClockReply(p []byte, what string) (nowNanos int64, body []byte, err error) {
	if len(p) < 8 {
		return 0, nil, fmt.Errorf("dist: malformed %s reply (%d bytes)", what, len(p))
	}
	return int64(binary.BigEndian.Uint64(p)), p[8:], nil
}

// Lock lease acquire statuses.
const (
	lockGranted uint8 = 0
	lockHeld    uint8 = 1
)

// BlockRef identifies one block: the node that owns it and the segment id
// within that node.
type BlockRef struct {
	Node uint32
	Seg  uint64
}

// elemBytes is the wire size of one element (int64).
const elemBytes = 8

// wbuf is a tiny append-only encoder over big-endian primitives.
type wbuf struct{ b []byte }

func (w *wbuf) u8(v uint8)   { w.b = append(w.b, v) }
func (w *wbuf) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *wbuf) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// rbuf is the matching decoder; the first malformed field poisons it and
// every later read reports the error.
type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("dist: truncated payload at %s (offset %d of %d)", what, r.off, len(r.b))
	}
}

func (r *rbuf) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail("u8")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *rbuf) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail("u32")
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *rbuf) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail("u64")
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *rbuf) str() string {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail("string")
		return ""
	}
	v := string(r.b[r.off : r.off+n])
	r.off += n
	return v
}

// configureReq tells a node its identity and peers.
type configureReq struct {
	NodeID    uint32
	BlockSize uint32
	Addrs     []string // index = node id; Addrs[NodeID] is the node itself
}

func (c configureReq) encode() []byte {
	var w wbuf
	w.u32(c.NodeID)
	w.u32(c.BlockSize)
	w.u32(uint32(len(c.Addrs)))
	for _, a := range c.Addrs {
		w.str(a)
	}
	return w.b
}

func decodeConfigure(p []byte) (configureReq, error) {
	r := rbuf{b: p}
	c := configureReq{NodeID: r.u32(), BlockSize: r.u32()}
	n := int(r.u32())
	if n > 1<<16 {
		return c, fmt.Errorf("dist: absurd peer count %d", n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		c.Addrs = append(c.Addrs, r.str())
	}
	return c, r.err
}

// encodeTable serializes a block table for Install.
func encodeTable(table []BlockRef) []byte {
	var w wbuf
	w.u32(uint32(len(table)))
	for _, b := range table {
		w.u32(b.Node)
		w.u64(b.Seg)
	}
	return w.b
}

func decodeTable(p []byte) ([]BlockRef, error) {
	r := rbuf{b: p}
	table, err := readTable(&r)
	if err != nil {
		return nil, err
	}
	return table, r.err
}

func readTable(r *rbuf) ([]BlockRef, error) {
	n := int(r.u32())
	if n > 1<<24 {
		return nil, fmt.Errorf("dist: absurd table size %d", n)
	}
	table := make([]BlockRef, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		table = append(table, BlockRef{Node: r.u32(), Seg: r.u64()})
	}
	return table, nil
}

// installReq carries a fenced, versioned table replacement. Fence is the
// holder's lease token: a node rejects installs whose fence is below the
// highest it has seen, so a holder whose lease expired (and was superseded)
// cannot clobber its successor's table. Epoch is the driver's table version;
// a retried install with the same (fence, epoch) is a no-op, making the RPC
// idempotent under retries. amAbort uses the same shape, with Table holding
// the rollback table.
//
// Regions, when non-empty, splits the install into per-region table
// publications: the node applies Table[:Hi] for each step in order, each
// under its own grace period, re-validating fence and abort tombstones
// between flips. Lo is carried for auditability and validated for shape;
// each step travels as two u32s. Empty Regions is the single-step install
// (aborts always use it: a rollback must be atomic).
type installReq struct {
	Fence   uint64
	Epoch   uint64
	Table   []BlockRef
	Regions []region.Step
}

func (q installReq) encode() []byte {
	var w wbuf
	w.u64(q.Fence)
	w.u64(q.Epoch)
	w.b = append(w.b, encodeTable(q.Table)...)
	w.u32(uint32(len(q.Regions)))
	for _, s := range q.Regions {
		w.u32(uint32(s.Lo))
		w.u32(uint32(s.Hi))
	}
	return w.b
}

func decodeInstall(p []byte) (installReq, error) {
	r := rbuf{b: p}
	q := installReq{Fence: r.u64(), Epoch: r.u64()}
	table, err := readTable(&r)
	if err != nil {
		return q, err
	}
	q.Table = table
	nr := int(r.u32())
	if r.err != nil {
		return q, r.err
	}
	if nr > 1<<24 {
		return q, fmt.Errorf("dist: absurd region count %d", nr)
	}
	for i := 0; i < nr && r.err == nil; i++ {
		q.Regions = append(q.Regions, region.Step{Lo: int(r.u32()), Hi: int(r.u32())})
	}
	return q, r.err
}

// encodeU64 / decodeU64 cover the single-field payloads (lease ttl,
// release token).
func encodeU64(v uint64) []byte {
	var w wbuf
	w.u64(v)
	return w.b
}

func decodeU64(p []byte, what string) (uint64, error) {
	r := rbuf{b: p}
	v := r.u64()
	if r.err != nil {
		return 0, fmt.Errorf("dist: %s: %w", what, r.err)
	}
	return v, nil
}

// encodeU64Pair covers the two-field payloads: (request id, fence token)
// for amAllocBlock and (request id, segment) for amFreeBlock.
func encodeU64Pair(a, b uint64) []byte {
	var w wbuf
	w.u64(a)
	w.u64(b)
	return w.b
}

func decodeU64Pair(p []byte, what string) (uint64, uint64, error) {
	r := rbuf{b: p}
	a, b := r.u64(), r.u64()
	if r.err != nil {
		return 0, 0, fmt.Errorf("dist: %s: %w", what, r.err)
	}
	return a, b, nil
}

// lockReply encodes a lease-acquire response: granted carries the fencing
// token, held carries the remaining lease in nanoseconds (a hint for the
// retry pause).
func encodeLockReply(status uint8, v uint64) []byte {
	var w wbuf
	w.u8(status)
	w.u64(v)
	return w.b
}

func decodeLockReply(p []byte) (status uint8, v uint64, err error) {
	r := rbuf{b: p}
	status, v = r.u8(), r.u64()
	return status, v, r.err
}

// recoverState is a node's answer to the restart catch-up RPC: the fencing
// milestones that order its table against a rejoining peer's replayed state,
// plus the table itself. A restarted node asks every reachable peer and
// adopts the newest answer (see adoptRecoverStateLocked), which is what stops
// an aborted table from resurrecting out of a crashed node's WAL: the peers'
// tombstones travel with their tables.
type recoverState struct {
	MaxFence     uint64
	AppliedFence uint64
	AppliedEpoch uint64
	AbortedFence uint64
	AbortedEpoch uint64
	Table        []BlockRef
}

func (s recoverState) encode() []byte {
	var w wbuf
	w.u64(s.MaxFence)
	w.u64(s.AppliedFence)
	w.u64(s.AppliedEpoch)
	w.u64(s.AbortedFence)
	w.u64(s.AbortedEpoch)
	w.b = append(w.b, encodeTable(s.Table)...)
	return w.b
}

func decodeRecoverState(p []byte) (recoverState, error) {
	r := rbuf{b: p}
	s := recoverState{
		MaxFence:     r.u64(),
		AppliedFence: r.u64(),
		AppliedEpoch: r.u64(),
		AbortedFence: r.u64(),
		AbortedEpoch: r.u64(),
	}
	table, err := readTable(&r)
	if err != nil {
		return s, err
	}
	s.Table = table
	return s, r.err
}

// SnapshotInfo reports one durable snapshot: the fencing milestone it was cut
// at and what it wrote.
type SnapshotInfo struct {
	Fence  uint64 // maxFence at the cut
	Epoch  uint64 // appliedEpoch at the cut
	Blocks uint32 // local blocks streamed
	Bytes  uint64 // file size on disk
}

func (s SnapshotInfo) encode() []byte {
	var w wbuf
	w.u64(s.Fence)
	w.u64(s.Epoch)
	w.u32(s.Blocks)
	w.u64(s.Bytes)
	return w.b
}

func decodeSnapshotInfo(p []byte) (SnapshotInfo, error) {
	r := rbuf{b: p}
	s := SnapshotInfo{Fence: r.u64(), Epoch: r.u64(), Blocks: r.u32(), Bytes: r.u64()}
	return s, r.err
}

// WorkloadReq asks a node to run a read or update workload locally.
//
// Elements are plain memory (the paper's semantics), so two modes exist:
// the default overlapping mode indexes the whole array like the paper's
// benchmarks (concurrent same-slot stores race by design), and Disjoint
// mode stripes [RangeLo, RangeHi) across every (node, task) pair so no two
// tasks anywhere in the cluster touch the same element — the mode the
// race-detector tests use.
type WorkloadReq struct {
	Update     bool
	Disjoint   bool
	Pattern    uint8 // workload.Pattern
	Tasks      uint32
	OpsPerTask uint64
	Seed       uint64
	RangeLo    uint64 // Disjoint only: partitioned element range
	RangeHi    uint64
}

func (q WorkloadReq) encode() []byte {
	var w wbuf
	var flags uint8
	if q.Update {
		flags |= 1
	}
	if q.Disjoint {
		flags |= 2
	}
	w.u8(flags)
	w.u8(q.Pattern)
	w.u32(q.Tasks)
	w.u64(q.OpsPerTask)
	w.u64(q.Seed)
	w.u64(q.RangeLo)
	w.u64(q.RangeHi)
	return w.b
}

func decodeWorkload(p []byte) (WorkloadReq, error) {
	r := rbuf{b: p}
	flags := r.u8()
	q := WorkloadReq{
		Update:     flags&1 != 0,
		Disjoint:   flags&2 != 0,
		Pattern:    r.u8(),
		Tasks:      r.u32(),
		OpsPerTask: r.u64(),
		Seed:       r.u64(),
		RangeLo:    r.u64(),
		RangeHi:    r.u64(),
	}
	return q, r.err
}

// WorkloadResp reports one node's workload execution.
type WorkloadResp struct {
	Ops       uint64
	Nanos     uint64
	RemoteOps uint64
}

func (p WorkloadResp) encode() []byte {
	var w wbuf
	w.u64(p.Ops)
	w.u64(p.Nanos)
	w.u64(p.RemoteOps)
	return w.b
}

func decodeWorkloadResp(b []byte) (WorkloadResp, error) {
	r := rbuf{b: b}
	p := WorkloadResp{Ops: r.u64(), Nanos: r.u64(), RemoteOps: r.u64()}
	return p, r.err
}

// NodeStats reports a node's counters.
type NodeStats struct {
	Installs    uint64 // snapshot installs applied
	Synchronize uint64 // EBR synchronize calls
	Retries     uint64 // EBR read-side verification retries
	LocalBlocks uint32 // blocks owned by this node
	Aborts      uint64 // resize rollbacks applied
	Fenced      uint64 // installs/aborts rejected for a stale fencing token
	RegionFlips uint64 // per-region table publications applied
	Snapshots   uint64 // durable snapshots written
	WALRecords  uint64 // resize milestones appended to the WAL
	WALReplayed uint64 // WAL milestones replayed at restart
	Recoveries  uint64 // restarts recovered from disk
}

func (s NodeStats) encode() []byte {
	var w wbuf
	w.u64(s.Installs)
	w.u64(s.Synchronize)
	w.u64(s.Retries)
	w.u32(s.LocalBlocks)
	w.u64(s.Aborts)
	w.u64(s.Fenced)
	w.u64(s.RegionFlips)
	w.u64(s.Snapshots)
	w.u64(s.WALRecords)
	w.u64(s.WALReplayed)
	w.u64(s.Recoveries)
	return w.b
}

func decodeStats(b []byte) (NodeStats, error) {
	r := rbuf{b: b}
	s := NodeStats{Installs: r.u64(), Synchronize: r.u64(), Retries: r.u64(), LocalBlocks: r.u32(),
		Aborts: r.u64(), Fenced: r.u64(), RegionFlips: r.u64(),
		Snapshots: r.u64(), WALRecords: r.u64(), WALReplayed: r.u64(), Recoveries: r.u64()}
	return s, r.err
}
