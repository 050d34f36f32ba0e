package dist

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rcuarray/internal/comm"
)

// chaosOpts is the tight-deadline envelope the chaos tests run under: fast
// failure detection, a short lease, bounded retries.
func chaosOpts(seed uint64) Options {
	return Options{
		CallTimeout:    300 * time.Millisecond,
		Retries:        3,
		RetryBase:      2 * time.Millisecond,
		RetryMax:       40 * time.Millisecond,
		LockTTL:        time.Second,
		AcquireTimeout: 10 * time.Second,
		Seed:           seed,
	}
}

func spawnChaosCluster(t *testing.T, n int, blockSize int, opts Options) (*Driver, []*ArrayNode) {
	t.Helper()
	nodes, stop, err := SpawnLocalNodes(n, comm.NodeConfig{FrameTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("SpawnLocalNodes: %v", err)
	}
	t.Cleanup(stop)
	addrs := make([]string, len(nodes))
	for i, node := range nodes {
		addrs[i] = node.Addr()
	}
	d, err := ConnectOpts(addrs, blockSize, opts)
	if err != nil {
		t.Fatalf("ConnectOpts: %v", err)
	}
	t.Cleanup(d.Close)
	return d, nodes
}

// Satellite regression: Driver.Close is idempotent and the Connect error
// path tolerates partially-dialed clients.
func TestChaosDriverCloseIdempotent(t *testing.T) {
	d, _ := spawnChaosCluster(t, 2, 8, chaosOpts(1))
	d.Close()
	d.Close() // second Close must be a no-op, not a double-close

	// Connect half-succeeds (first address live, second dead): its internal
	// cleanup must handle the partially-dialed client slice.
	addrs, stop, err := SpawnLocal(1)
	if err != nil {
		t.Fatalf("SpawnLocal: %v", err)
	}
	defer stop()
	if _, err := ConnectOpts([]string{addrs[0], "127.0.0.1:1"}, 8, chaosOpts(1)); err == nil {
		t.Fatal("Connect with a dead node succeeded")
	}
}

// The acceptance-criteria scenario: a node dies mid-protocol; the resize
// must abort cleanly — table rolled back everywhere it landed, blocks freed,
// lease released — while reads keep serving the old snapshot on the
// survivors.
func TestChaosNodeKillDuringResize(t *testing.T) {
	d, nodes := spawnChaosCluster(t, 3, 8, chaosOpts(2))
	if err := d.Grow(8 * 6); err != nil { // 6 blocks over 3 nodes
		t.Fatalf("initial Grow: %v", err)
	}
	oldLen := d.Len()

	// Acknowledged writes before the fault.
	written := map[int]int64{}
	for i := 0; i < oldLen; i++ {
		v := int64(i*7 + 1)
		if err := d.Write(i, v); err != nil {
			t.Fatalf("Write(%d): %v", i, err)
		}
		written[i] = v
	}
	preStats, err := d.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}

	nodes[2].Close() // kill a block owner

	if err := d.Grow(8 * 3); err == nil {
		t.Fatal("Grow succeeded with a dead node")
	} else if !strings.Contains(err.Error(), "resize aborted") {
		t.Fatalf("Grow error is not a clean abort: %v", err)
	}

	// 1. The driver still serves the old snapshot.
	if got := d.Len(); got != oldLen {
		t.Fatalf("Len after aborted resize = %d, want %d", got, oldLen)
	}
	// 2. No divergent block tables across the surviving nodes.
	for node := 0; node < 2; node++ {
		got, err := d.NodeLen(node)
		if err != nil {
			t.Fatalf("NodeLen(%d): %v", node, err)
		}
		if got != oldLen {
			t.Fatalf("node %d table diverged: sees %d elements, want %d", node, got, oldLen)
		}
	}
	// 3. No lost acknowledged writes on surviving owners.
	for idx, want := range written {
		ref, _, err := d.locate(idx)
		if err != nil {
			t.Fatalf("locate(%d): %v", idx, err)
		}
		if ref.Node == 2 {
			continue // owned by the dead node; unreachable, not lost
		}
		got, err := d.Read(idx)
		if err != nil {
			t.Fatalf("Read(%d) after abort: %v", idx, err)
		}
		if got != want {
			t.Fatalf("acked write lost: Read(%d) = %d, want %d", idx, got, want)
		}
	}
	// 4. No leaked blocks on the survivors: every block allocated for the
	// aborted resize was freed again.
	postStats := make([]NodeStats, 2)
	for node := 0; node < 2; node++ {
		reply, err := d.am(node, amStats, nil)
		if err != nil {
			t.Fatalf("stats node %d: %v", node, err)
		}
		if postStats[node], err = decodeStats(reply); err != nil {
			t.Fatalf("decode stats node %d: %v", node, err)
		}
		if postStats[node].LocalBlocks != preStats[node].LocalBlocks {
			t.Fatalf("node %d leaked blocks: %d before, %d after abort",
				node, preStats[node].LocalBlocks, postStats[node].LocalBlocks)
		}
	}
	// 5. The lease was released, not leaked: a fresh acquire succeeds well
	// within the TTL.
	start := time.Now()
	token, err := d.AcquireLock()
	if err != nil {
		t.Fatalf("AcquireLock after abort: %v", err)
	}
	if waited := time.Since(start); waited > 500*time.Millisecond {
		t.Fatalf("lock only became available after %v — leaked until lease expiry", waited)
	}
	if err := d.ReleaseLock(token); err != nil {
		t.Fatalf("ReleaseLock: %v", err)
	}
}

// Same fault, racing: the node dies concurrently with a stream of resizes.
// Whatever each Grow reports, the invariants must hold afterwards: driver
// and surviving nodes agree on the table, and reads keep working.
func TestChaosNodeKillConcurrentWithResizes(t *testing.T) {
	d, nodes := spawnChaosCluster(t, 3, 8, chaosOpts(3))
	if err := d.Grow(8 * 3); err != nil {
		t.Fatalf("initial Grow: %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		nodes[1].Close()
	}()
	for i := 0; i < 8; i++ {
		if err := d.Grow(8); err != nil {
			break // expected once the node is dead
		}
	}
	wg.Wait()

	for _, node := range []int{0, 2} {
		got, err := d.NodeLen(node)
		if err != nil {
			t.Fatalf("NodeLen(%d): %v", node, err)
		}
		if got != d.Len() {
			t.Fatalf("node %d sees %d elements, driver sees %d", node, got, d.Len())
		}
	}
	// Reads of survivor-owned elements still work.
	for i := 0; i < d.Len(); i++ {
		ref, _, err := d.locate(i)
		if err != nil {
			t.Fatalf("locate(%d): %v", i, err)
		}
		if ref.Node == 1 {
			continue
		}
		if _, err := d.Read(i); err != nil {
			t.Fatalf("Read(%d) on survivor: %v", i, err)
		}
	}
}

// A crashed lease holder must not wedge the cluster: the lease expires and
// the next resize proceeds.
func TestChaosLeaseExpiryUnwedgesCrashedDriver(t *testing.T) {
	opts := chaosOpts(4)
	opts.LockTTL = 300 * time.Millisecond
	d, _ := spawnChaosCluster(t, 2, 8, opts)

	// "Crash" while holding the lease: acquire and never release.
	if _, err := d.AcquireLock(); err != nil {
		t.Fatalf("AcquireLock: %v", err)
	}
	start := time.Now()
	if err := d.Grow(8); err != nil {
		t.Fatalf("Grow blocked behind a dead holder: %v", err)
	}
	waited := time.Since(start)
	if waited < 200*time.Millisecond {
		t.Fatalf("Grow acquired the lease after only %v — lease not enforced", waited)
	}
	if got := d.Len(); got != 8 {
		t.Fatalf("Len = %d after post-expiry Grow", got)
	}
}

// Fencing: a holder that lost its lease while stalled cannot clobber the
// successor's table with a late install.
func TestChaosStaleHolderInstallFenced(t *testing.T) {
	opts := chaosOpts(5)
	opts.LockTTL = 200 * time.Millisecond
	d, _ := spawnChaosCluster(t, 2, 8, opts)
	if err := d.Grow(16); err != nil {
		t.Fatalf("initial Grow: %v", err)
	}

	// Driver A acquires and stalls past its lease.
	staleToken, err := d.AcquireLock()
	if err != nil {
		t.Fatalf("AcquireLock: %v", err)
	}
	time.Sleep(250 * time.Millisecond)

	// Driver B supersedes it and completes a resize (installing its newer
	// fencing token on every node).
	if err := d.Grow(8); err != nil {
		t.Fatalf("superseding Grow: %v", err)
	}
	wantLen := d.Len()

	// A wakes up and replays its install with the superseded token: every
	// node must reject it.
	d.mu.Lock()
	staleTable := append([]BlockRef(nil), d.table[:1]...)
	staleEpoch := d.epoch + 1
	d.mu.Unlock()
	payload := installReq{Fence: staleToken, Epoch: staleEpoch, Table: staleTable}.encode()
	for node := 0; node < d.Nodes(); node++ {
		_, err := d.am(node, amInstall, payload)
		if err == nil {
			t.Fatalf("node %d accepted a fenced install", node)
		}
		var rerr *comm.RemoteError
		if !errors.As(err, &rerr) || !strings.Contains(err.Error(), "fenced") {
			t.Fatalf("node %d rejection is not a fencing error: %v", node, err)
		}
	}
	for node := 0; node < d.Nodes(); node++ {
		got, err := d.NodeLen(node)
		if err != nil {
			t.Fatalf("NodeLen(%d): %v", node, err)
		}
		if got != wantLen {
			t.Fatalf("fenced install mutated node %d: %d elements, want %d", node, got, wantLen)
		}
	}
	stats, err := d.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	for i, s := range stats {
		if s.Fenced == 0 {
			t.Fatalf("node %d recorded no fenced rejections", i)
		}
	}
	// The stale holder's release is also rejected.
	if err := d.ReleaseLock(staleToken); err == nil {
		t.Fatal("superseded token released the lock")
	}
}

// An aborted resize rolls back nodes that already applied the new table.
func TestChaosAbortRollsBackAppliedInstalls(t *testing.T) {
	d, nodes := spawnChaosCluster(t, 2, 8, chaosOpts(6))
	if err := d.Grow(16); err != nil {
		t.Fatalf("initial Grow: %v", err)
	}
	oldLen := d.Len()
	nodes[1].Close()
	// Grow one block owned by node 0: the alloc and node 0's install
	// succeed, node 1's install cannot — the abort must roll node 0 back.
	if err := d.Grow(8); err == nil {
		t.Fatal("Grow succeeded with node 1 dead")
	}
	got, err := d.NodeLen(0)
	if err != nil {
		t.Fatalf("NodeLen(0): %v", err)
	}
	if got != oldLen {
		t.Fatalf("node 0 not rolled back: %d elements, want %d", got, oldLen)
	}
	reply, err := d.am(0, amStats, nil)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	s, err := decodeStats(reply)
	if err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if s.Aborts == 0 {
		t.Fatal("node 0 recorded no rollback")
	}
}

// Retried RPCs are idempotent: replaying the exact alloc and install
// messages (as a retry after a lost response would) must not double-install
// or leak blocks.
func TestChaosRetriedRPCsIdempotent(t *testing.T) {
	d, _ := spawnChaosCluster(t, 1, 8, chaosOpts(7))
	if err := d.Grow(8); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	stats0, _ := d.Stats()

	// One lease token covers the replayed alloc and install below: allocs
	// carry their resize's fence token, and the node rejects any at or below
	// its last install/abort milestone.
	token, err := d.AcquireLock()
	if err != nil {
		t.Fatalf("AcquireLock: %v", err)
	}

	// Replay an alloc with a fixed request id twice: same segment, one
	// allocation.
	r1, err := d.am(0, amAllocBlock, encodeU64Pair(0xABCD, token))
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	r2, err := d.am(0, amAllocBlock, encodeU64Pair(0xABCD, token))
	if err != nil {
		t.Fatalf("replayed alloc: %v", err)
	}
	if binary.BigEndian.Uint64(r1) != binary.BigEndian.Uint64(r2) {
		t.Fatalf("replayed alloc returned a different segment: %v vs %v", r1, r2)
	}
	stats1, _ := d.Stats()
	if stats1[0].LocalBlocks != stats0[0].LocalBlocks+1 {
		t.Fatalf("replayed alloc leaked: %d blocks, want %d", stats1[0].LocalBlocks, stats0[0].LocalBlocks+1)
	}
	// Free it twice: idempotent too.
	seg := binary.BigEndian.Uint64(r1)
	for i := 0; i < 2; i++ {
		if _, err := d.am(0, amFreeBlock, encodeU64Pair(0xABCD, seg)); err != nil {
			t.Fatalf("free #%d: %v", i+1, err)
		}
	}
	stats2, _ := d.Stats()
	if stats2[0].LocalBlocks != stats0[0].LocalBlocks {
		t.Fatalf("double free skewed block count: %d, want %d", stats2[0].LocalBlocks, stats0[0].LocalBlocks)
	}

	// Replay the last install verbatim: applied exactly once. Idempotency
	// keys on (fence, epoch), so install a fresh fenced pair first and then
	// replay exactly that pair.
	d.mu.Lock()
	table := append([]BlockRef(nil), d.table...)
	epoch := d.epoch
	d.mu.Unlock()
	reply, _ := d.am(0, amStats, nil)
	s, _ := decodeStats(reply)
	installsBefore := s.Installs
	q := installReq{Fence: token, Epoch: epoch + 1, Table: table}
	if _, err := d.am(0, amInstall, q.encode()); err != nil {
		t.Fatalf("install: %v", err)
	}
	if _, err := d.am(0, amInstall, q.encode()); err != nil {
		t.Fatalf("replayed install: %v", err)
	}
	reply, _ = d.am(0, amStats, nil)
	s, _ = decodeStats(reply)
	if s.Installs != installsBefore+1 {
		t.Fatalf("replayed install applied twice: %d installs, want %d", s.Installs, installsBefore+1)
	}
	d.ReleaseLock(token)
}

// Regression for the straggler-install race: a timed-out install frame can
// be delivered after the resize it belongs to was aborted. The aborted
// (fence, epoch) pair must be tombstoned — on nodes that applied the install
// and rolled back, and on nodes where the abort was a no-op — so the
// straggler cannot re-install a table whose blocks the abort already freed.
func TestChaosStragglerInstallAfterAbortRejected(t *testing.T) {
	d, nodes := spawnChaosCluster(t, 2, 8, chaosOpts(14))
	if err := d.Grow(16); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	oldLen := d.Len()

	token, err := d.AcquireLock()
	if err != nil {
		t.Fatalf("AcquireLock: %v", err)
	}
	defer d.ReleaseLock(token)
	d.mu.Lock()
	oldTable := append([]BlockRef(nil), d.table...)
	epoch := d.epoch + 1
	d.mu.Unlock()

	// Allocate one block on node 0 and build the would-be new table.
	reply, err := d.am(0, amAllocBlock, encodeU64Pair(token<<20, token))
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	seg := binary.BigEndian.Uint64(reply)
	newTable := append(append([]BlockRef(nil), oldTable...), BlockRef{Node: 0, Seg: seg})
	install := installReq{Fence: token, Epoch: epoch, Table: newTable}.encode()

	// The install lands on node 0 only (node 1's copy "timed out in flight").
	if _, err := d.am(0, amInstall, install); err != nil {
		t.Fatalf("install on node 0: %v", err)
	}
	// The resize aborts: rollback on node 0, no-op on node 1.
	abort := installReq{Fence: token, Epoch: epoch, Table: oldTable}.encode()
	for node := 0; node < 2; node++ {
		if _, err := d.am(node, amAbort, abort); err != nil {
			t.Fatalf("abort on node %d: %v", node, err)
		}
	}

	// The straggler install is finally delivered — to the node that rolled
	// back AND to the node the abort was a no-op on. Both must reject it.
	for node := 0; node < 2; node++ {
		_, err := d.am(node, amInstall, install)
		if err == nil {
			t.Fatalf("node %d applied a straggler install of an aborted resize", node)
		}
		if !strings.Contains(err.Error(), "aborted") {
			t.Fatalf("node %d rejection is not the abort tombstone: %v", node, err)
		}
		got, err := d.NodeLen(node)
		if err != nil {
			t.Fatalf("NodeLen(%d): %v", node, err)
		}
		if got != oldLen {
			t.Fatalf("straggler install mutated node %d: %d elements, want %d", node, got, oldLen)
		}
	}

	// The aborted resize's block was freed by the abort (the ledger knows
	// its fence), and the straggler's table referencing it is dead.
	nodes[0].mu.Lock()
	ledger := len(nodes[0].allocs)
	nodes[0].mu.Unlock()
	if ledger != 0 {
		t.Fatalf("alloc ledger still holds %d entries after abort", ledger)
	}
	if _, err := nodes[0].srv.Segment(seg); err == nil {
		t.Fatal("aborted resize's segment still allocated")
	}
}

// The alloc-dedup ledger must not grow forever: entries are pruned when
// their resize commits (install) or dies (abort), and a straggler alloc at
// or below the node's fence milestone is rejected instead of leaking a
// segment nobody will free.
func TestChaosAllocLedgerPrunedAndFenced(t *testing.T) {
	d, nodes := spawnChaosCluster(t, 2, 8, chaosOpts(15))
	for i := 0; i < 3; i++ {
		if err := d.Grow(8 * 2); err != nil {
			t.Fatalf("Grow %d: %v", i, err)
		}
	}
	for i, node := range nodes {
		node.mu.Lock()
		ledger := len(node.allocs)
		node.mu.Unlock()
		if ledger != 0 {
			t.Fatalf("node %d alloc ledger holds %d entries after committed resizes", i, ledger)
		}
	}
	// A straggler alloc from a long-finished resize is fenced, not
	// allocated: both one well below the last install's token (fence 1) and
	// one at that token itself, the boundary of the reject-at-or-below rule.
	stats0, err := d.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	nodes[0].mu.Lock()
	last := nodes[0].rs.maxFence
	nodes[0].mu.Unlock()
	for i, fence := range []uint64{1, last} {
		if _, err := d.am(0, amAllocBlock, encodeU64Pair(1<<20+uint64(i), fence)); err == nil {
			t.Fatalf("straggler alloc with stale fence %d (last install %d) succeeded", fence, last)
		} else if !strings.Contains(err.Error(), "fenced") {
			t.Fatalf("straggler alloc rejection at fence %d: %v", fence, err)
		}
	}
	stats1, err := d.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats1[0].LocalBlocks != stats0[0].LocalBlocks {
		t.Fatalf("fenced alloc still allocated: %d blocks, was %d",
			stats1[0].LocalBlocks, stats0[0].LocalBlocks)
	}
}

// Seeded connection faults (stalls, resets, partial writes) are absorbed by
// timeouts, retries, and redial: the protocol makes progress and stays
// consistent, and the fault schedule is actually exercising it.
func TestChaosRetriesMaskInjectedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault storm skipped in -short mode")
	}
	inj := comm.NewInjector(comm.FaultPlan{
		Seed:  11,
		Reset: 650, Partial: 650, Stall: 1300, // ~1%, ~1%, ~2%
		StallFor: 20 * time.Millisecond,
	})
	opts := chaosOpts(11)
	opts.Retries = 6
	opts.Faults = inj
	d, _ := spawnChaosCluster(t, 3, 8, opts)

	if err := d.Grow(8 * 6); err != nil {
		t.Fatalf("Grow under faults: %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := d.Grow(8); err != nil {
			t.Fatalf("Grow %d under faults: %v", i, err)
		}
	}
	acked := map[int]int64{}
	for i := 0; i < d.Len(); i += 3 {
		v := int64(i) ^ 0x5a5a
		if err := d.Write(i, v); err != nil {
			t.Fatalf("Write(%d) under faults: %v", i, err)
		}
		acked[i] = v
	}
	for idx, want := range acked {
		got, err := d.Read(idx)
		if err != nil {
			t.Fatalf("Read(%d) under faults: %v", idx, err)
		}
		if got != want {
			t.Fatalf("acked write lost under faults: Read(%d) = %d, want %d", idx, got, want)
		}
	}
	for node := 0; node < d.Nodes(); node++ {
		got, err := d.NodeLen(node)
		if err != nil {
			t.Fatalf("NodeLen(%d): %v", node, err)
		}
		if got != d.Len() {
			t.Fatalf("node %d diverged under faults: %d vs %d", node, got, d.Len())
		}
	}
	if inj.Total() == 0 {
		t.Fatal("fault plan injected nothing — the test exercised no faults")
	}
}

// A severed partition fails resizes cleanly; healing plus redial restores
// full service.
func TestChaosPartitionThenHeal(t *testing.T) {
	var part comm.Partition
	opts := chaosOpts(12)
	opts.Part = &part
	d, _ := spawnChaosCluster(t, 2, 8, opts)
	if err := d.Grow(16); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	oldLen := d.Len()

	part.Sever()
	if err := d.Grow(8); err == nil {
		t.Fatal("Grow crossed an open partition")
	}
	if got := d.Len(); got != oldLen {
		t.Fatalf("partitioned Grow mutated driver table: %d", got)
	}

	part.Heal()
	if err := d.Grow(8); err != nil {
		t.Fatalf("Grow after heal: %v", err)
	}
	for node := 0; node < d.Nodes(); node++ {
		got, err := d.NodeLen(node)
		if err != nil {
			t.Fatalf("NodeLen(%d) after heal: %v", node, err)
		}
		if got != d.Len() {
			t.Fatalf("node %d diverged after heal: %d vs %d", node, got, d.Len())
		}
	}
}

// Satellite: malformed payloads arriving over a real socket — the rbuf
// poison discipline must surface as error replies, and an oversized frame
// must sever the connection, with the node healthy throughout.
func TestChaosMalformedFramesOverSocket(t *testing.T) {
	d, nodes := spawnChaosCluster(t, 1, 8, chaosOpts(13))
	if err := d.Grow(8); err != nil {
		t.Fatalf("Grow: %v", err)
	}

	// Hand-rolled frames: [4B len][1B type][8B seq][2B handler][payload].
	rawAM := func(handler uint16, payload []byte) []byte {
		body := make([]byte, 0, 11+len(payload))
		body = append(body, 0x03) // msgAM
		body = binary.BigEndian.AppendUint64(body, 1)
		body = binary.BigEndian.AppendUint16(body, handler)
		body = append(body, payload...)
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
		return append(frame, body...)
	}
	readReply := func(t *testing.T, conn net.Conn) (byte, []byte) {
		t.Helper()
		var hdr [4]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			t.Fatalf("read reply header: %v", err)
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(conn, body); err != nil {
			t.Fatalf("read reply body: %v", err)
		}
		return body[0], body[9:]
	}

	truncated := [][2]interface{}{
		{amInstall, []byte{0x00, 0x01}},               // fence cut short
		{amConfigure, []byte{0x00, 0x00, 0x00}},       // node id cut short
		{amAllocBlock, []byte{0x01}},                  // request id cut short
		{amLockAcquire, []byte{}},                     // missing ttl
		{amFreeBlock, []byte{1, 2, 3, 4, 5, 6, 7, 8}}, // second u64 missing
	}
	for _, tc := range truncated {
		handler := tc[0].(uint16)
		conn, err := net.Dial("tcp", nodes[0].Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		if _, err := conn.Write(rawAM(handler, tc[1].([]byte))); err != nil {
			t.Fatalf("write: %v", err)
		}
		typ, payload := readReply(t, conn)
		if typ != 0x81 { // msgError
			t.Fatalf("handler %d: truncated payload got reply type %#x, want error", handler, typ)
		}
		if !strings.Contains(string(payload), "truncated") && !strings.Contains(string(payload), "ttl") {
			t.Fatalf("handler %d: unexpected error text %q", handler, payload)
		}
		conn.Close()
	}

	// Oversized table length inside a well-formed frame: rejected, not
	// allocated.
	conn, err := net.Dial("tcp", nodes[0].Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	huge := make([]byte, 20)
	binary.BigEndian.PutUint64(huge[0:], 1)           // fence
	binary.BigEndian.PutUint64(huge[8:], 1)           // epoch
	binary.BigEndian.PutUint32(huge[16:], 0xFFFFFFFF) // absurd table size
	if _, err := conn.Write(rawAM(amInstall, huge)); err != nil {
		t.Fatalf("write: %v", err)
	}
	typ, payload := readReply(t, conn)
	if typ != 0x81 || !strings.Contains(string(payload), "absurd") {
		t.Fatalf("absurd table size: type %#x, %q", typ, payload)
	}
	conn.Close()

	// An oversized *frame* severs the connection before any allocation.
	conn, err = net.Dial("tcp", nodes[0].Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 64<<20)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatalf("write oversized header: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("node kept the connection after an oversized frame")
	}
	conn.Close()

	// The node shrugged it all off: normal service continues.
	if _, err := d.Read(0); err != nil {
		t.Fatalf("Read after malformed traffic: %v", err)
	}
	if got, err := d.NodeLen(0); err != nil || got != d.Len() {
		t.Fatalf("NodeLen after malformed traffic = %d, %v", got, err)
	}
}
