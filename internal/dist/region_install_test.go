package dist

// Tests for the incremental per-region install: region plans, per-step
// grace periods, mid-install prefix consistency, abort of a partly-applied
// install (no resurrection), and the kill-between-flips convergence audit.

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rcuarray/internal/comm"
	"rcuarray/internal/region"
)

// regionOpts widens the RPC deadline so a test that deliberately pauses a
// node mid-install does not trip the retry envelope.
func regionOpts(rb int) Options {
	return Options{
		CallTimeout:    10 * time.Second,
		Retries:        2,
		RetryBase:      2 * time.Millisecond,
		RetryMax:       40 * time.Millisecond,
		LockTTL:        30 * time.Second,
		AcquireTimeout: 10 * time.Second,
		RegionBlocks:   rb,
	}
}

func tablesEqual(a, b []BlockRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A multi-region grow publishes one region at a time: the hooked node
// observes each step at a region-boundary prefix length, every flip runs its
// own grace period, and afterwards every node converges on the full table.
func TestRegionInstallStepsAndConvergence(t *testing.T) {
	d, nodes := spawnChaosCluster(t, 2, 8, regionOpts(2))

	type step struct{ k, total, tableLen int }
	var mu sync.Mutex
	var seen []step
	nodes[0].SetInstallHook(func(k, total int) {
		mu.Lock()
		seen = append(seen, step{k, total, len(nodes[0].snap.Load().table)})
		mu.Unlock()
	})

	if err := d.Grow(8 * 5); err != nil { // 0 -> 5 blocks: regions [0,2) [2,4) [4,5)
		t.Fatalf("Grow: %v", err)
	}
	mu.Lock()
	want := []step{{0, 3, 2}, {1, 3, 4}, {2, 3, 5}}
	if len(seen) != len(want) {
		t.Fatalf("hook saw %d steps, want %d: %+v", len(seen), len(want), seen)
	}
	for i, s := range seen {
		if s != want[i] {
			t.Fatalf("step %d = %+v, want %+v", i, s, want[i])
		}
	}
	mu.Unlock()

	stats, err := d.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	for i, s := range stats {
		if s.RegionFlips != 3 {
			t.Errorf("node %d region flips = %d, want 3", i, s.RegionFlips)
		}
		if s.Installs != 1 {
			t.Errorf("node %d installs = %d, want 1", i, s.Installs)
		}
		if s.Synchronize != 3 { // one grace period per region flip
			t.Errorf("node %d synchronizes = %d, want 3", i, s.Synchronize)
		}
	}

	// A one-block grow is a single-step install: no extra region flips.
	if err := d.Grow(8); err != nil {
		t.Fatalf("second Grow: %v", err)
	}
	stats, _ = d.Stats()
	for i, s := range stats {
		if s.RegionFlips != 4 || s.Installs != 2 {
			t.Errorf("node %d after aligned grow: flips %d installs %d, want 4 and 2", i, s.RegionFlips, s.Installs)
		}
	}

	// Convergence audit: every node's table is the driver's, byte for byte.
	for node := 0; node < d.Nodes(); node++ {
		got, err := d.NodeTable(node)
		if err != nil {
			t.Fatalf("NodeTable(%d): %v", node, err)
		}
		if !tablesEqual(got, d.table) {
			t.Fatalf("node %d table diverged: %v vs driver %v", node, got, d.table)
		}
	}
}

// The dist rendition of the mid-install linearizability window: an install
// paused between region flips leaves the node on a consistent region-
// boundary prefix — Len and ReadTable agree on it, acknowledged old data
// stays readable — and releasing the pause converges everyone on the full
// table with nothing torn.
func TestRegionInstallPausedMidExposesConsistentPrefix(t *testing.T) {
	d, nodes := spawnChaosCluster(t, 2, 8, regionOpts(2))
	if err := d.Grow(8 * 2); err != nil {
		t.Fatalf("setup Grow: %v", err)
	}
	for i := 0; i < 16; i++ {
		if err := d.Write(i, int64(i*13+1)); err != nil {
			t.Fatalf("Write(%d): %v", i, err)
		}
	}
	oldTable := append([]BlockRef(nil), d.table...)

	// Pause node 0 after its first region flip; a raw side-channel client
	// audits the node while the install RPC is parked in its handler.
	armed := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	nodes[0].SetInstallHook(func(k, total int) {
		if k == 0 {
			once.Do(func() {
				close(armed)
				<-release
			})
		}
	})
	side, err := comm.Dial(nodes[0].Addr())
	if err != nil {
		t.Fatalf("side dial: %v", err)
	}
	defer side.Close()

	growDone := make(chan error, 1)
	go func() { growDone <- d.Grow(8 * 4) }() // 2 -> 6 blocks: regions [2,4) [4,6)
	<-armed

	// Mid-window: the node serves the [0,4)-block prefix, exactly the new
	// table cut at the first region boundary (whose head is the old table).
	reply, err := side.AM(amReadTable, nil)
	if err != nil {
		t.Fatalf("mid-install ReadTable: %v", err)
	}
	mid, err := decodeTable(reply)
	if err != nil {
		t.Fatalf("decode mid-install table: %v", err)
	}
	if len(mid) != 4 {
		t.Fatalf("mid-install table has %d blocks, want the 4-block region prefix", len(mid))
	}
	if !tablesEqual(mid[:2], oldTable) {
		t.Fatalf("mid-install prefix rewrote old blocks: %v vs %v", mid[:2], oldTable)
	}
	lenReply, err := side.AM(amLen, nil)
	if err != nil || len(lenReply) != 4 {
		t.Fatalf("mid-install Len: %v (%d bytes)", err, len(lenReply))
	}

	close(release)
	if err := <-growDone; err != nil {
		t.Fatalf("Grow with paused node: %v", err)
	}
	newTable := append([]BlockRef(nil), d.table...)
	if !tablesEqual(mid, newTable[:4]) {
		t.Fatalf("mid-install table was not a prefix of the final table: %v vs %v", mid, newTable[:4])
	}
	for node := 0; node < d.Nodes(); node++ {
		got, err := d.NodeTable(node)
		if err != nil {
			t.Fatalf("NodeTable(%d): %v", node, err)
		}
		if !tablesEqual(got, newTable) {
			t.Fatalf("node %d did not converge: %v vs %v", node, got, newTable)
		}
	}
	for i := 0; i < 16; i++ {
		if got, err := d.Read(i); err != nil || got != int64(i*13+1) {
			t.Fatalf("Read(%d) after paused install = %d, %v", i, got, err)
		}
	}
}

// An abort landing between region flips rolls the partly-applied install
// back and tombstones it: the in-flight install stops at its next step
// instead of resurrecting, the delta blocks are freed, and a retry of the
// aborted install is rejected. This is the region-milestone extension of
// PR 3's abort machinery.
func TestRegionAbortMidInstallPreventsResurrection(t *testing.T) {
	d, nodes := spawnChaosCluster(t, 1, 8, regionOpts(2))
	if err := d.Grow(8 * 2); err != nil {
		t.Fatalf("setup Grow: %v", err)
	}
	oldTable := append([]BlockRef(nil), d.table...)
	epoch := d.epoch + 1

	token, err := d.AcquireLock()
	if err != nil {
		t.Fatalf("AcquireLock: %v", err)
	}
	defer d.ReleaseLock(token)

	// Hand-run the resize: allocate four blocks, then install with two
	// region steps, aborting from a side channel after the first flip.
	newTable := append([]BlockRef(nil), oldTable...)
	for i := 0; i < 4; i++ {
		reply, err := d.am(0, amAllocBlock, encodeU64Pair(token<<20|uint64(i), token))
		if err != nil || len(reply) != 8 {
			t.Fatalf("alloc %d: %v (%d bytes)", i, err, len(reply))
		}
		newTable = append(newTable, BlockRef{Node: 0, Seg: rbufU64(reply)})
	}
	abortPayload := installReq{Fence: token, Epoch: epoch, Table: oldTable}.encode()
	side, err := comm.Dial(nodes[0].Addr())
	if err != nil {
		t.Fatalf("side dial: %v", err)
	}
	defer side.Close()
	preStats, err := d.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	var hookErr error
	var once sync.Once
	nodes[0].SetInstallHook(func(k, total int) {
		if k == 0 {
			once.Do(func() { _, hookErr = side.AM(amAbort, abortPayload) })
		}
	})

	install := installReq{
		Fence: token, Epoch: epoch, Table: newTable,
		Regions: []region.Step{{Lo: 2, Hi: 4}, {Lo: 4, Hi: 6}},
	}
	_, err = d.am(0, amInstall, install.encode())
	if err == nil {
		t.Fatal("install continued past a mid-flight abort")
	}
	if !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("install error is not the abort tombstone: %v", err)
	}
	if hookErr != nil {
		t.Fatalf("mid-install abort RPC: %v", hookErr)
	}

	// Rolled back, nothing torn, nothing resurrected, delta blocks freed.
	got, err := d.NodeTable(0)
	if err != nil {
		t.Fatalf("NodeTable: %v", err)
	}
	if !tablesEqual(got, oldTable) {
		t.Fatalf("node table after mid-install abort: %v, want old %v", got, oldTable)
	}
	stats, err := d.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats[0].Aborts != 1 {
		t.Errorf("aborts = %d, want 1", stats[0].Aborts)
	}
	if got := stats[0].RegionFlips - preStats[0].RegionFlips; got != 1 {
		t.Errorf("install published %d region steps, want exactly the one pre-abort flip", got)
	}
	// The abort freed the published delta (blocks the first flip exposed);
	// the two never-published blocks are the driver's to free, as in
	// abortResize. After that, the node is back to its pre-resize footprint.
	for i, ref := range newTable[2:] {
		if _, err := d.am(0, amFreeBlock, encodeU64Pair(token<<20|uint64(i), ref.Seg)); err != nil {
			t.Fatalf("FreeBlock(%d): %v", i, err)
		}
	}
	stats, _ = d.Stats()
	if stats[0].LocalBlocks != 2 {
		t.Errorf("local blocks = %d after abort cleanup, want 2", stats[0].LocalBlocks)
	}

	// A straggler retry of the aborted install must stay dead.
	if _, err := d.am(0, amInstall, install.encode()); err == nil {
		t.Fatal("retried install of an aborted resize succeeded")
	}
	if got, _ := d.NodeTable(0); !tablesEqual(got, oldTable) {
		t.Fatalf("straggler retry moved the table: %v", got)
	}
}

// rbufU64 decodes an 8-byte big-endian reply (alloc responses).
func rbufU64(b []byte) uint64 {
	r := rbuf{b: b}
	return r.u64()
}

// Satellite 3, in-package half: a node killed between region flips fails the
// resize; the abort leaves every survivor fully-old — never a torn mix of
// old and new blocks — and the cluster keeps serving the old snapshot.
func TestChaosKillBetweenRegionFlips(t *testing.T) {
	opts := chaosOpts(11)
	opts.RegionBlocks = 2
	d, nodes := spawnChaosCluster(t, 3, 8, opts)
	if err := d.Grow(8 * 2); err != nil {
		t.Fatalf("setup Grow: %v", err)
	}
	oldTable := append([]BlockRef(nil), d.table...)
	oldLen := d.Len()
	for i := 0; i < oldLen; i++ {
		if err := d.Write(i, int64(i+101)); err != nil {
			t.Fatalf("Write(%d): %v", i, err)
		}
	}

	// Node 2 dies right after publishing its first region of the next grow.
	// Close must run off the handler goroutine (it joins handlers), so the
	// hook fires it async and parks until the listener is provably down —
	// by then Close has also severed the live connections, so the in-flight
	// install cannot be acknowledged.
	addr2 := nodes[2].Addr()
	var once sync.Once
	nodes[2].SetInstallHook(func(k, total int) {
		if k == 0 {
			once.Do(func() {
				go nodes[2].Close()
				for i := 0; i < 1000; i++ {
					c, err := net.Dial("tcp", addr2)
					if err != nil {
						break
					}
					c.Close()
					time.Sleep(2 * time.Millisecond)
				}
				time.Sleep(10 * time.Millisecond)
			})
		}
	})

	if err := d.Grow(8 * 6); err == nil { // 2 -> 8 blocks: regions [2,4) [4,6) [6,8)
		t.Fatal("Grow succeeded with a node dying between region flips")
	} else if !strings.Contains(err.Error(), "resize aborted") {
		t.Fatalf("Grow error is not a clean abort: %v", err)
	}

	if got := d.Len(); got != oldLen {
		t.Fatalf("driver Len after abort = %d, want %d", got, oldLen)
	}
	for node := 0; node < 2; node++ {
		got, err := d.NodeTable(node)
		if err != nil {
			t.Fatalf("NodeTable(%d): %v", node, err)
		}
		if !tablesEqual(got, oldTable) {
			t.Fatalf("survivor %d not fully-old after kill-between-flips: %v, want %v", node, got, oldTable)
		}
	}
	// Acknowledged writes on surviving owners are intact.
	for i := 0; i < oldLen; i++ {
		ref, _, err := d.locate(i)
		if err != nil {
			t.Fatalf("locate(%d): %v", i, err)
		}
		if ref.Node == 2 {
			continue
		}
		if got, err := d.Read(i); err != nil || got != int64(i+101) {
			t.Fatalf("Read(%d) after abort = %d, %v", i, got, err)
		}
	}
	// And the cluster is still live: a later resize on the survivors' lease
	// path works once the dead node is routed around by a fresh driver.
	owned := map[uint32]uint32{}
	for _, ref := range oldTable {
		owned[ref.Node]++
	}
	for node := 0; node < 2; node++ {
		reply, err := d.am(node, amStats, nil)
		if err != nil {
			t.Fatalf("stats node %d: %v", node, err)
		}
		s, err := decodeStats(reply)
		if err != nil {
			t.Fatalf("decode stats node %d: %v", node, err)
		}
		if s.LocalBlocks != owned[uint32(node)] {
			t.Errorf("survivor %d holds %d blocks, want %d (aborted delta freed)", node, s.LocalBlocks, owned[uint32(node)])
		}
	}
}
