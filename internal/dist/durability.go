package dist

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"rcuarray/internal/comm"
	"rcuarray/internal/durable"
	"rcuarray/internal/ebr"
	"rcuarray/internal/obs"
)

// Durability for an array node: a resize write-ahead log, fence-stamped
// snapshots cut from an RCU read snapshot, and crash-recovery restart.
//
// The contract has two tiers. Resize milestones — region flips, full
// installs, aborts — are WAL-appended (and fsynced) before the node
// acknowledges them, so the table a restarted node reconstructs is exactly
// the one it had acknowledged: replay is "more resizes" through the same
// fencing/idempotency state machine handleInstall and handleAbort run live.
// Element data is durable to the latest snapshot: a snapshot streams every
// local segment without stalling writers (the cut is a table read under an
// EBR section; each segment copy serializes only against Puts to that one
// segment), so writes acknowledged after the newest snapshot are lost with
// the node — the same window any page-cache database has between
// checkpoints. Restart closes the gap against the cluster: after replay the
// node asks every reachable peer for its fencing milestones (amRecoverState)
// and adopts the newest answer, which also imports the peers' abort
// tombstones — the mechanism that keeps a table the cluster aborted from
// resurrecting out of a crashed node's WAL.

// NodeOptions configures an ArrayNode beyond transport tuning.
type NodeOptions struct {
	// Comm is the transport configuration (frame/idle deadlines, registry).
	Comm comm.NodeConfig
	// DataDir, when non-empty, enables durability: the node persists its
	// configuration, appends resize milestones to a WAL before acknowledging
	// them, serves the amSnapshot RPC, and — when the directory already
	// holds a previous incarnation's state — recovers from it before
	// accepting connections. Empty keeps the node fully in-memory.
	DataDir string
	// StallThreshold, when positive, arms a grace-period stall watchdog on
	// the node's EBR domain: a Synchronize waiting longer than this fires
	// one rcu_stall_warnings_total increment, a rcu.stall trace instant, and
	// OnStall. Zero leaves the node unwatched.
	StallThreshold time.Duration
	// OnStall runs on the watchdog goroutine for each stall warning — the
	// flight-recorder hook (rcunode dumps its registry here).
	OnStall func(ebr.StallReport)
}

// File layout inside DataDir. Sequence numbers only grow; recovery loads the
// newest footer-complete snapshot and replays every WAL file at or after the
// sequence the snapshot's cut rotated to.
const (
	confFile   = "node.conf"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	walPrefix  = "wal-"
	walSuffix  = ".log"
)

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix))
}

func walPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", walPrefix, seq, walSuffix))
}

// seqFiles lists the sequence numbers of dir's prefix/suffix-named files in
// ascending order, ignoring anything that does not parse (temp files from an
// interrupted atomic write, foreign droppings).
func seqFiles(dir, prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
		seq, err := strconv.ParseUint(hex, 16, 64)
		if err != nil || len(hex) != 16 {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// Durable record kinds (first byte of every record payload). Unknown kinds
// stop a replay scan cleanly — the forward-compatibility analogue of a torn
// tail.
const (
	recWALInstall  uint8 = 1  // one acknowledged region flip
	recWALAbort    uint8 = 2  // one acknowledged abort (tombstone + rollback)
	recSnapHeader  uint8 = 10 // cut milestones + wall-clock stamp
	recSnapTable   uint8 = 11 // the cut's block table
	recSnapSegment uint8 = 12 // one local segment image
	recSnapFooter  uint8 = 13 // completeness marker: segment count
	recConfig      uint8 = 20 // node identity, peers, restart generation
)

// walRecord is one WAL milestone, the union of the install and abort shapes.
// An install record carries the region step it acknowledges plus the
// published prefix table (self-contained: replay never needs the full
// resize's table to reconstruct an intermediate state). Digest is the CRC of
// the resize's full table — every step of one (fence, epoch) must agree on
// it, a cheap cross-record corruption check. An abort record carries the
// rollback table.
type walRecord struct {
	Kind   uint8
	Fence  uint64
	Epoch  uint64
	Step   uint32 // install: region step index
	Total  uint32 // install: region step count
	Digest uint32 // install: crc32 of the full table encoding
	Table  []BlockRef
}

func tableDigest(table []BlockRef) uint32 {
	return crc32.ChecksumIEEE(encodeTable(table))
}

func (rec walRecord) encode() []byte {
	var w wbuf
	w.u8(rec.Kind)
	w.u64(rec.Fence)
	w.u64(rec.Epoch)
	w.u32(rec.Step)
	w.u32(rec.Total)
	w.u32(rec.Digest)
	w.b = append(w.b, encodeTable(rec.Table)...)
	return w.b
}

func decodeWALRecord(p []byte) (walRecord, error) {
	r := rbuf{b: p}
	rec := walRecord{Kind: r.u8(), Fence: r.u64(), Epoch: r.u64(),
		Step: r.u32(), Total: r.u32(), Digest: r.u32()}
	table, err := readTable(&r)
	if err != nil {
		return rec, err
	}
	rec.Table = table
	return rec, r.err
}

// snapHeader is the first record of a snapshot file: the fencing milestones
// at the cut, the WAL sequence the cut rotated to (replay starts there), and
// a wall-clock stamp for operators (never fed back into protocol decisions —
// the reason internal/durable is a seedpure carve-out applies here too).
type snapHeader struct {
	NodeID    uint32
	BlockSize uint32
	WallNanos uint64
	WALSeq    uint64
	st        resizeState // the table travels in its own record
}

func (h snapHeader) encode() []byte {
	var w wbuf
	w.u8(recSnapHeader)
	w.u32(h.NodeID)
	w.u32(h.BlockSize)
	w.u64(h.WallNanos)
	w.u64(h.WALSeq)
	w.u64(h.st.maxFence)
	w.u64(h.st.appliedFence)
	w.u64(h.st.appliedEpoch)
	w.u64(h.st.abortedFence)
	w.u64(h.st.abortedEpoch)
	w.u64(h.st.installFence)
	w.u64(h.st.installEpoch)
	w.u64(h.st.regionMilestone)
	return w.b
}

func decodeSnapHeader(p []byte) (snapHeader, error) {
	r := rbuf{b: p}
	if k := r.u8(); r.err == nil && k != recSnapHeader {
		return snapHeader{}, fmt.Errorf("dist: snapshot header kind %d", k)
	}
	h := snapHeader{NodeID: r.u32(), BlockSize: r.u32(), WallNanos: r.u64(), WALSeq: r.u64()}
	h.st = resizeState{
		maxFence:        r.u64(),
		appliedFence:    r.u64(),
		appliedEpoch:    r.u64(),
		abortedFence:    r.u64(),
		abortedEpoch:    r.u64(),
		installFence:    r.u64(),
		installEpoch:    r.u64(),
		regionMilestone: r.u64(),
	}
	return h, r.err
}

// nodeConf is the persisted identity record: everything a restart needs to
// rejoin without a fresh Configure. RestartGen is bumped (and re-persisted)
// before the restarted node dials anyone, so the generation a crashed
// incarnation registered at its peers is superseded and its in-flight Puts
// are fenced.
type nodeConf struct {
	NodeID     uint32
	BlockSize  uint32
	Identity   uint64
	RestartGen uint64
	Addrs      []string
}

func (c nodeConf) encode() []byte {
	var w wbuf
	w.u8(recConfig)
	w.u32(c.NodeID)
	w.u32(c.BlockSize)
	w.u64(c.Identity)
	w.u64(c.RestartGen)
	w.u32(uint32(len(c.Addrs)))
	for _, a := range c.Addrs {
		w.str(a)
	}
	return w.b
}

func decodeNodeConf(p []byte) (nodeConf, error) {
	r := rbuf{b: p}
	if k := r.u8(); r.err == nil && k != recConfig {
		return nodeConf{}, fmt.Errorf("dist: config record kind %d", k)
	}
	c := nodeConf{NodeID: r.u32(), BlockSize: r.u32(), Identity: r.u64(), RestartGen: r.u64()}
	n := int(r.u32())
	if n > 1<<16 {
		return c, fmt.Errorf("dist: absurd peer count %d", n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		c.Addrs = append(c.Addrs, r.str())
	}
	return c, r.err
}

// resizeState is a node's install/abort fencing and idempotency state: the
// milestones every install and abort is judged against. Its one transition
// function, next, is called by the live handlers and by WAL replay alike, so
// replay really is "more resizes".
type resizeState struct {
	maxFence     uint64 // highest fencing token seen
	appliedFence uint64 // (fence, epoch) of the applied table
	appliedEpoch uint64
	// abortedFence/abortedEpoch tombstone the highest (fence, epoch) pair an
	// abort has been processed for — including aborts that were no-ops here
	// because the install never landed. A straggler or duplicate install
	// carrying an aborted pair would otherwise pass the fence check (same
	// token) and miss the idempotency check (the rollback moved appliedEpoch
	// back), re-installing a table whose blocks the abort already freed.
	abortedFence uint64
	abortedEpoch uint64
	// Incremental-install progress: which install is mid-flight and how many
	// of its region steps have been published, so a retried install resumes
	// instead of re-flipping, and an abort of a partly-applied install knows
	// to roll back. regionMilestone only moves forward within one (fence,
	// epoch) and resets when a different install or an abort takes over.
	installFence    uint64
	installEpoch    uint64
	regionMilestone uint64
}

// resizeVerdict is next's decision on one install or abort record.
type resizeVerdict uint8

const (
	// Not logged: the record leaves the state unchanged.
	vFenced     resizeVerdict = iota // stale token: a successor owns the table
	vTombstoned                      // install of an aborted (fence, epoch)
	vApplied                         // retried install, already applied in full
	vStepDone                        // retried region step, already published
	// Logged: the record is WAL-appended before the new state is adopted.
	vPublish   // install publishes a region prefix of its table
	vCommit    // install publishes its last step: the table is applied
	vNotLanded // abort of an install that never landed: tombstone only
	vRollback  // abort rolls the table back to the record's table
)

// logged reports whether the verdict changes the state, so the record must
// reach the WAL before the handler adopts it.
func (v resizeVerdict) logged() bool { return v >= vPublish }

// publishes reports whether the verdict replaces the table with the record's.
func (v resizeVerdict) publishes() bool { return v.logged() && v != vNotLanded }

// next decides one install step or abort against st and returns the state
// after it. It is pure: st is never mutated, and every non-logged verdict
// returns st unchanged, so a caller that fails to log the record simply
// keeps st.
func (st resizeState) next(rec walRecord) (resizeState, resizeVerdict) {
	if rec.Fence < st.maxFence {
		return st, vFenced
	}
	nx := st
	nx.maxFence = rec.Fence
	if rec.Kind == recWALAbort {
		// Tombstone the aborted pair — even when the install never landed
		// here — so a straggler install for this resize is rejected instead
		// of applied against the freed blocks.
		if rec.Fence > st.abortedFence || (rec.Fence == st.abortedFence && rec.Epoch > st.abortedEpoch) {
			nx.abortedFence, nx.abortedEpoch = rec.Fence, rec.Epoch
		}
		applied := rec.Fence == st.appliedFence && rec.Epoch == st.appliedEpoch
		partial := rec.Fence == st.installFence && rec.Epoch == st.installEpoch && st.regionMilestone > 0
		if !applied && !partial {
			return nx, vNotLanded
		}
		// The rollback supersedes whatever region steps were published;
		// forgetting the progress keeps a later install at this fence from
		// "resuming" a plan that no longer owns the table.
		if st.regionMilestone > 0 {
			nx.regionMilestone = 0
		}
		if applied {
			nx.appliedEpoch = rec.Epoch - 1
		}
		return nx, vRollback
	}
	if rec.Fence == st.abortedFence && rec.Epoch <= st.abortedEpoch {
		// A straggler (the client abandoned this frame on a timeout, then the
		// resize aborted) or a duplicate: its table references blocks the
		// abort already freed. For a partly-published install this is also
		// the resurrection stop: the abort rolled the table back between
		// flips, and continuing would re-publish freed blocks.
		return st, vTombstoned
	}
	if rec.Fence == st.appliedFence && rec.Epoch == st.appliedEpoch {
		return st, vApplied
	}
	if st.installFence != rec.Fence || st.installEpoch != rec.Epoch {
		// A different install owned the progress counter (or none did); this
		// one takes over from step zero.
		nx.installFence, nx.installEpoch = rec.Fence, rec.Epoch
		if st.regionMilestone > 0 {
			nx.regionMilestone = 0
		}
	}
	if nx.regionMilestone >= uint64(rec.Step)+1 {
		return st, vStepDone
	}
	nx.regionMilestone = uint64(rec.Step) + 1
	if rec.Step+1 < rec.Total {
		return nx, vPublish
	}
	nx.appliedFence, nx.appliedEpoch = rec.Fence, rec.Epoch
	return nx, vCommit
}

// replayState is the fold of a WAL: the resize state plus the table its last
// publishing record carried.
type replayState struct {
	resizeState
	table []BlockRef
}

// replayWAL folds one WAL file's records into st, tolerating a torn tail and
// stopping at the first inconsistent record. It returns how many records
// were folded in and whether that was every record the file holds — the
// condition for appending to the file again.
func replayWAL(path string, st *replayState) (int, bool, error) {
	payloads, _, err := durable.ReadFile(path)
	if err != nil {
		return 0, false, err
	}
	k := replayWALRecords(payloads, st)
	return k, k == len(payloads), nil
}

// replayWALRecords is the pure core of replayWAL (the fuzz surface): decode
// each payload, check cross-record digest consistency, fold into st. A record
// that is internally inconsistent (digest mismatch within one resize, unknown
// kind) stops the scan, exactly like a torn tail; stale or duplicate records
// fold to non-logged verdicts and change nothing.
func replayWALRecords(payloads [][]byte, st *replayState) int {
	applied := 0
	digests := make(map[[2]uint64]uint32)
	for _, p := range payloads {
		rec, err := decodeWALRecord(p)
		if err != nil {
			return applied // a torn record body that still passed the CRC cannot happen; treat as tail
		}
		if rec.Kind == recWALInstall {
			key := [2]uint64{rec.Fence, rec.Epoch}
			if d, ok := digests[key]; ok && d != rec.Digest {
				return applied // two steps of one resize disagree on the table: stop clean
			}
			digests[key] = rec.Digest
		} else if rec.Kind != recWALAbort {
			return applied
		}
		var v resizeVerdict
		st.resizeState, v = st.next(rec)
		if v.publishes() {
			st.table = rec.Table
		}
		applied++
	}
	return applied
}

// decodeSnapshot validates a snapshot file's records: header first, then the
// table, then the segment images, then the footer whose count must match.
// Incomplete or malformed snapshots return an error; recovery then falls
// back to the next-older file.
func decodeSnapshot(payloads [][]byte, torn bool) (snapHeader, []BlockRef, map[uint64][]byte, error) {
	if torn {
		return snapHeader{}, nil, nil, fmt.Errorf("dist: torn snapshot file")
	}
	if len(payloads) < 3 {
		return snapHeader{}, nil, nil, fmt.Errorf("dist: snapshot with %d records", len(payloads))
	}
	h, err := decodeSnapHeader(payloads[0])
	if err != nil {
		return snapHeader{}, nil, nil, err
	}
	r := rbuf{b: payloads[1]}
	if k := r.u8(); r.err != nil || k != recSnapTable {
		return snapHeader{}, nil, nil, fmt.Errorf("dist: snapshot table record kind %d (%v)", k, r.err)
	}
	table, err := readTable(&r)
	if err != nil || r.err != nil {
		return snapHeader{}, nil, nil, fmt.Errorf("dist: snapshot table: %v / %v", err, r.err)
	}
	segs := make(map[uint64][]byte)
	for _, p := range payloads[2 : len(payloads)-1] {
		sr := rbuf{b: p}
		if k := sr.u8(); sr.err != nil || k != recSnapSegment {
			return snapHeader{}, nil, nil, fmt.Errorf("dist: snapshot segment record kind %d (%v)", k, sr.err)
		}
		seg := sr.u64()
		if sr.err != nil {
			return snapHeader{}, nil, nil, sr.err
		}
		data := make([]byte, len(p)-sr.off)
		copy(data, p[sr.off:])
		segs[seg] = data
	}
	fr := rbuf{b: payloads[len(payloads)-1]}
	if k := fr.u8(); fr.err != nil || k != recSnapFooter {
		return snapHeader{}, nil, nil, fmt.Errorf("dist: snapshot missing footer (kind %d, %v)", k, fr.err)
	}
	if count := fr.u32(); fr.err != nil || int(count) != len(segs) {
		return snapHeader{}, nil, nil, fmt.Errorf("dist: snapshot footer counts %d segments, file holds %d", count, len(segs))
	}
	return h, table, segs, nil
}

// logged is the proof that a milestone reached the WAL. Only
// walAppendLocked makes one and replaceTableLocked demands one, so a live
// handler cannot publish a table before its record is durable: the
// write-ahead order is checked by the compiler. Replay and adoption publish
// with a plain Store because they log nothing.
type logged struct{}

// walAppendLocked appends one milestone to the WAL and fsyncs. Callers hold
// n.mu and must not acknowledge the milestone if this fails: write-ahead
// means the record is durable before the flip is visible to anyone.
// A node without a data dir has no WAL and acknowledges immediately.
func (n *ArrayNode) walAppendLocked(rec walRecord) (logged, error) {
	if n.wal == nil {
		return logged{}, nil
	}
	if err := n.wal.Append(rec.encode()); err != nil {
		return logged{}, fmt.Errorf("dist: WAL append: %w", err)
	}
	n.walRecords.Inc()
	return logged{}, nil
}

// Snapshot streams a consistent cut of the node to a new snapshot file and
// prunes the files it supersedes. The cut — table plus fencing milestones —
// is taken inside an EBR read section with the node mutex held just long
// enough to read the milestone fields and rotate the WAL; the published
// table is immutable, so segment streaming then proceeds with no lock at
// all. Writers never stall: each segment copy serializes only against Puts
// to that one segment (comm.SnapshotSegment), and installs only contend for
// the brief cut. A segment freed mid-stream (a concurrent abort rolling back
// the cut's table) fails the snapshot cleanly; the caller retries against
// the post-abort state.
func (n *ArrayNode) Snapshot() (SnapshotInfo, error) {
	if n.dataDir == "" {
		return SnapshotInfo{}, fmt.Errorf("dist: snapshot without a data dir")
	}
	if !n.configured.Load() {
		return SnapshotInfo{}, fmt.Errorf("dist: node not configured")
	}
	n.snapMu.Lock()
	defer n.snapMu.Unlock()
	start := obs.Start()

	// The cut: pin an epoch (EBR read section), read the published table,
	// capture milestones, rotate the WAL so every milestone acknowledged
	// after the cut lands in a file the cut's WALSeq points at.
	var hook func(seg uint64)
	table, cutState, newSeq, oldWAL, err := func() ([]BlockRef, resizeState, uint64, *durable.Writer, error) {
		g := n.dom.Enter()
		defer g.Exit()
		n.mu.Lock()
		defer n.mu.Unlock()
		hook = n.snapHook
		snap := n.snap.Load()
		snap.CheckLive()
		seq := n.walSeq + 1
		w, err := durable.Create(walPath(n.dataDir, seq))
		if err != nil {
			return nil, resizeState{}, 0, nil, fmt.Errorf("dist: rotating WAL: %w", err)
		}
		old := n.wal
		n.wal = w
		n.walSeq = seq
		return snap.table, n.rs, seq, old, nil
	}()
	if err != nil {
		return SnapshotInfo{}, err
	}
	if oldWAL != nil {
		oldWAL.Close()
	}

	header := snapHeader{
		NodeID:    n.id,
		BlockSize: uint32(n.blockSize),
		WallNanos: uint64(time.Now().UnixNano()),
		WALSeq:    newSeq,
		st:        cutState,
	}
	payloads := [][]byte{header.encode()}
	tw := wbuf{}
	tw.u8(recSnapTable)
	tw.b = append(tw.b, encodeTable(table)...)
	payloads = append(payloads, tw.b)
	blocks := uint32(0)
	seen := make(map[uint64]bool)
	for _, ref := range table {
		if ref.Node != n.id || seen[ref.Seg] {
			continue
		}
		seen[ref.Seg] = true
		data, err := n.srv.SnapshotSegment(ref.Seg)
		if err != nil {
			return SnapshotInfo{}, fmt.Errorf("dist: snapshot segment %d: %w", ref.Seg, err)
		}
		var sw wbuf
		sw.u8(recSnapSegment)
		sw.u64(ref.Seg)
		sw.b = append(sw.b, data...)
		payloads = append(payloads, sw.b)
		blocks++
		if hook != nil {
			hook(ref.Seg)
		}
	}
	var fw wbuf
	fw.u8(recSnapFooter)
	fw.u32(blocks)
	payloads = append(payloads, fw.b)

	n.mu.Lock()
	snapSeq := n.snapSeq + 1
	n.snapSeq = snapSeq
	n.mu.Unlock()
	bytes, err := durable.WriteFileAtomic(snapPath(n.dataDir, snapSeq), payloads)
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("dist: writing snapshot: %w", err)
	}
	n.pruneDurable(snapSeq, newSeq)
	n.snapshots.Inc()
	n.snapBytes.Add(uint64(bytes))
	n.snapNs.Since(start)
	return SnapshotInfo{
		Fence:  cutState.maxFence,
		Epoch:  cutState.appliedEpoch,
		Blocks: blocks,
		Bytes:  uint64(bytes),
	}, nil
}

// pruneDurable removes snapshots older than the one just written and WAL
// files wholly before its cut. Only files strictly superseded go: the cut's
// own WAL file stays, and errors are ignored — a leftover file costs disk,
// never correctness.
func (n *ArrayNode) pruneDurable(snapSeq, walSeq uint64) {
	if seqs, err := seqFiles(n.dataDir, snapPrefix, snapSuffix); err == nil {
		for _, s := range seqs {
			if s < snapSeq {
				os.Remove(snapPath(n.dataDir, s))
			}
		}
	}
	if seqs, err := seqFiles(n.dataDir, walPrefix, walSuffix); err == nil {
		for _, s := range seqs {
			if s < walSeq {
				os.Remove(walPath(n.dataDir, s))
			}
		}
	}
}

func (n *ArrayNode) handleSnapshot(payload []byte) ([]byte, error) {
	info, err := n.Snapshot()
	if err != nil {
		return nil, err
	}
	return info.encode(), nil
}

// handleRecoverState answers a restarting peer with this node's fencing
// milestones and table, read in one critical section so they are mutually
// consistent.
func (n *ArrayNode) handleRecoverState(payload []byte) ([]byte, error) {
	if !n.configured.Load() {
		return nil, fmt.Errorf("dist: node not configured")
	}
	g := n.dom.Enter()
	defer g.Exit()
	n.mu.Lock()
	defer n.mu.Unlock()
	snap := n.snap.Load()
	snap.CheckLive()
	s := recoverState{
		MaxFence:     n.rs.maxFence,
		AppliedFence: n.rs.appliedFence,
		AppliedEpoch: n.rs.appliedEpoch,
		AbortedFence: n.rs.abortedFence,
		AbortedEpoch: n.rs.abortedEpoch,
		Table:        snap.table,
	}
	return s.encode(), nil
}

// persistConf writes the node's identity record atomically.
func persistConf(dir string, c nodeConf) error {
	_, err := durable.WriteFileAtomic(filepath.Join(dir, confFile), [][]byte{c.encode()})
	return err
}

// loadConf reads the identity record; os.ErrNotExist passes through (a fresh
// data dir).
func loadConf(dir string) (nodeConf, error) {
	payloads, torn, err := durable.ReadFile(filepath.Join(dir, confFile))
	if err != nil {
		return nodeConf{}, err
	}
	if torn || len(payloads) != 1 {
		return nodeConf{}, fmt.Errorf("dist: corrupt config record (%d records, torn=%v)", len(payloads), torn)
	}
	return decodeNodeConf(payloads[0])
}

// peerIdentity derives the write-fencing identity an array node presents on
// its connection to one peer. Each (node, peer) edge keeps a single identity
// across restarts — it is derived from the persisted node identity — so a
// restart's bumped generation supersedes the crashed incarnation's
// connection in the peer's fencing ledger.
func peerIdentity(base uint64, peer int) uint64 {
	return base ^ uint64(peer+1)
}

// recoverDialTimeout bounds each peer dial and catch-up RPC during restart.
// Recovery is not on anyone's request path, so a generous-but-bounded value
// beats configurability here.
const recoverDialTimeout = 2 * time.Second

// recoverFromDisk rebuilds the node from its data dir: newest valid snapshot,
// WAL replay, peer re-dial under a bumped connection generation, and a
// catch-up poll of every reachable peer. It runs before the node serves
// (comm.DeferServe), so no request can observe partial state. A data dir
// with no config record is a fresh node: recovery is a no-op and the node
// waits for Configure as usual.
func (n *ArrayNode) recoverFromDisk() error {
	conf, err := loadConf(n.dataDir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	start := obs.Start()

	// Bump and re-persist the generation before dialing anyone: once any
	// peer sees the new hello, the crashed incarnation's in-flight Puts are
	// fenced, and a crash during recovery still leaves the counter monotone.
	conf.RestartGen++
	if err := persistConf(n.dataDir, conf); err != nil {
		return fmt.Errorf("dist: persisting restart generation: %w", err)
	}

	// Newest footer-complete snapshot wins; older ones are the fallback when
	// the newest was torn by a crash mid-rename (the atomic write makes that
	// window tiny but not empty on all filesystems).
	var st replayState
	var segs map[uint64][]byte
	snapSeqs, err := seqFiles(n.dataDir, snapPrefix, snapSuffix)
	if err != nil {
		return err
	}
	loadedSnap := uint64(0)
	walFrom := uint64(0)
	for i := len(snapSeqs) - 1; i >= 0; i-- {
		payloads, torn, err := durable.ReadFile(snapPath(n.dataDir, snapSeqs[i]))
		if err != nil {
			continue
		}
		h, table, s, err := decodeSnapshot(payloads, torn)
		if err != nil {
			continue
		}
		st = replayState{h.st, table}
		segs = s
		loadedSnap = snapSeqs[i]
		walFrom = h.WALSeq
		break
	}
	for seg, data := range segs {
		n.srv.RestoreSegment(seg, data)
	}

	// Replay every WAL file at or after the snapshot's cut, in sequence
	// order. Files before the cut may survive a crash between the snapshot
	// rename and the prune; their records are stale by fence and would be
	// skipped anyway, but skipping the files entirely keeps restart O(live
	// log).
	walSeqs, err := seqFiles(n.dataDir, walPrefix, walSuffix)
	if err != nil {
		return err
	}
	lastWAL := uint64(0)
	tailWhole := false
	replayed := 0
	for _, seq := range walSeqs {
		if seq < walFrom {
			continue
		}
		k, whole, err := replayWAL(walPath(n.dataDir, seq), &st)
		if err != nil {
			return fmt.Errorf("dist: replaying WAL %d: %w", seq, err)
		}
		replayed += k
		lastWAL, tailWhole = seq, whole
	}

	// Install the recovered state. No reader exists yet (DeferServe), so the
	// table swap needs no grace period; the replaced table is left unretired.
	n.mu.Lock()
	n.id = conf.NodeID
	n.blockSize = int(conf.BlockSize)
	n.identity = conf.Identity
	n.restartGen = conf.RestartGen
	n.rs = st.resizeState
	n.snap.Swap(&n.dom, &tableSnapshot{table: st.table})
	n.snapSeq = loadedSnap
	n.mu.Unlock()

	// Re-dial peers with the bumped generation. Unreachable peers are
	// skipped — the driver's own redial reaches us regardless, and a peer
	// that is itself restarting answers the catch-up of whoever comes back
	// last. Peer connections use the persisted identity, so the fencing
	// ledger at each peer sees one identity per (node, peer) edge across
	// restarts.
	peers := make([]*comm.Client, len(conf.Addrs))
	for i, a := range conf.Addrs {
		if uint32(i) == conf.NodeID {
			continue
		}
		c, err := comm.DialConfig(a, comm.ClientConfig{
			DialTimeout: recoverDialTimeout,
			CallTimeout: recoverDialTimeout,
			Identity:    peerIdentity(n.identity, i),
			Generation:  n.restartGen,
			Peer:        fmt.Sprintf("n%d", i),
			Obs:         n.reg,
		})
		if err != nil {
			continue
		}
		peers[i] = c
	}

	// Catch up: adopt the newest peer milestones. This is where a rollback
	// the cluster performed while we were down lands — including the abort
	// tombstone that stops our replayed-but-aborted install from ever
	// resurrecting — and where installs we missed entirely arrive, via the
	// same audit table RPC shape the chaos harness trusts.
	for i, p := range peers {
		if p == nil {
			continue
		}
		reply, err := p.CallAM(amRecoverState, nil, recoverDialTimeout)
		if err != nil {
			continue
		}
		rs, err := decodeRecoverState(reply)
		if err != nil {
			return fmt.Errorf("dist: peer %d recover state: %w", i, err)
		}
		n.mu.Lock()
		n.adoptRecoverStateLocked(rs)
		n.mu.Unlock()
	}

	// Any local block the final table references must exist; one the
	// snapshot missed (allocated after the cut, installed via WAL or
	// adoption) comes back zeroed — its element writes postdate the cut and
	// are below the durability line by contract.
	n.mu.Lock()
	table := n.snap.Load().table
	local := 0
	live := make(map[uint64]bool)
	for _, ref := range table {
		if ref.Node != n.id {
			continue
		}
		local++
		live[ref.Seg] = true
		if _, err := n.srv.Segment(ref.Seg); err != nil {
			n.srv.RestoreSegment(ref.Seg, make([]byte, n.blockSize*elemBytes))
		}
	}
	// Segments the snapshot carried but the final table does not reference
	// belong to a resize the cluster rolled back while we were down: free
	// them rather than carry them forever.
	for seg := range segs {
		if !live[seg] {
			n.srv.FreeSegment(seg)
		}
	}
	n.localBlocks.Add(int64(local))
	n.peers = peers
	n.trace.ring = n.trace.tr.Ring(int(n.id), 0)
	n.trace.lockRing = n.trace.tr.Ring(int(n.id), 1)

	// Append to the newest WAL file when replay folded every record in it
	// (OpenAppend truncates a torn tail), so restarts do not pile up files.
	// A record that stopped the scan must never have records behind it — the
	// next replay would stop there again and drop them — so in that case, or
	// with no file to reopen, the WAL starts a fresh sequence. Replayed files
	// stay behind until the next snapshot prunes them.
	var w *durable.Writer
	if tailWhole {
		n.walSeq = lastWAL
		w, err = durable.OpenAppend(walPath(n.dataDir, n.walSeq))
	} else {
		n.walSeq = lastWAL + 1
		w, err = durable.Create(walPath(n.dataDir, n.walSeq))
	}
	if err != nil {
		n.mu.Unlock()
		return fmt.Errorf("dist: opening WAL: %w", err)
	}
	n.wal = w
	n.configured.Store(true)
	n.mu.Unlock()

	// Re-seed the WriteLock token source (meaningful on node 0 only, cheap
	// everywhere): tokens must stay above every fence the cluster has seen,
	// or the first post-restart Acquire would grant a token the nodes all
	// fence out.
	n.lockMu.Lock()
	n.mu.Lock()
	if n.lockFence < n.rs.maxFence {
		n.lockFence = n.rs.maxFence
	}
	n.mu.Unlock()
	n.lockMu.Unlock()

	n.walReplayed.Add(uint64(replayed))
	n.recoveries.Inc()
	n.recoverNs.Since(start)
	return nil
}

// adoptRecoverStateLocked folds one peer's milestones into the node if the
// peer is strictly newer: a higher fence, or — at our fence — an applied
// epoch or abort tombstone we have not seen. Adoption replaces the table
// wholesale (the peer's is the cluster's authoritative one at those
// milestones) and resets install progress: whatever partial install our WAL
// replayed has been superseded or rolled back by the adopted state. Callers
// hold n.mu. No EBR grace period is needed: adoption runs only before the
// node serves.
func (n *ArrayNode) adoptRecoverStateLocked(rs recoverState) bool {
	if rs.MaxFence < n.rs.maxFence {
		return false
	}
	newer := rs.MaxFence > n.rs.maxFence ||
		rs.AppliedEpoch > n.rs.appliedEpoch ||
		rs.AbortedFence > n.rs.abortedFence ||
		(rs.AbortedFence == n.rs.abortedFence && rs.AbortedEpoch > n.rs.abortedEpoch)
	if !newer {
		return false
	}
	n.rs.maxFence = rs.MaxFence
	n.rs.appliedFence, n.rs.appliedEpoch = rs.AppliedFence, rs.AppliedEpoch
	n.rs.abortedFence, n.rs.abortedEpoch = rs.AbortedFence, rs.AbortedEpoch
	n.rs.installFence, n.rs.installEpoch = rs.AppliedFence, rs.AppliedEpoch
	if n.rs.regionMilestone > 0 {
		n.rs.regionMilestone = 0
	}
	n.snap.Swap(&n.dom, &tableSnapshot{table: rs.Table})
	return true
}

// SnapshotNode asks one node to cut and persist a snapshot, returning its
// stats. Nodes without a data dir answer with an error.
func (d *Driver) SnapshotNode(node int) (SnapshotInfo, error) {
	reply, err := d.am(node, amSnapshot, nil)
	if err != nil {
		return SnapshotInfo{}, err
	}
	return decodeSnapshotInfo(reply)
}
