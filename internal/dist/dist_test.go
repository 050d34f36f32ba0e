package dist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcuarray/internal/comm"
	"rcuarray/internal/workload"
)

func newTestCluster(t *testing.T, nodes, blockSize int) *Driver {
	t.Helper()
	addrs, stop, err := SpawnLocal(nodes)
	if err != nil {
		t.Fatalf("SpawnLocal: %v", err)
	}
	t.Cleanup(stop)
	d, err := Connect(addrs, blockSize)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	t.Cleanup(d.Close)
	return d
}

func TestConnectValidation(t *testing.T) {
	if _, err := Connect(nil, 8); err == nil {
		t.Fatal("Connect with no addresses succeeded")
	}
	if _, err := Connect([]string{"127.0.0.1:1"}, 0); err == nil {
		t.Fatal("Connect with zero block size succeeded")
	}
	if _, err := Connect([]string{"127.0.0.1:1"}, 8); err == nil {
		t.Fatal("Connect to dead address succeeded")
	}
}

func TestGrowDistributesRoundRobin(t *testing.T) {
	d := newTestCluster(t, 3, 8)
	if d.Len() != 0 {
		t.Fatalf("initial Len = %d", d.Len())
	}
	if err := d.Grow(8 * 7); err != nil { // 7 blocks over 3 nodes
		t.Fatalf("Grow: %v", err)
	}
	if got := d.Len(); got != 56 {
		t.Fatalf("Len = %d, want 56", got)
	}
	stats, err := d.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	want := []uint32{3, 2, 2}
	for i, s := range stats {
		if s.LocalBlocks != want[i] {
			t.Fatalf("node %d owns %d blocks, want %d", i, s.LocalBlocks, want[i])
		}
		if s.Installs != 1 {
			t.Fatalf("node %d applied %d installs, want 1", i, s.Installs)
		}
	}
	// Cursor persists: the next grow starts at node 1.
	if err := d.Grow(8); err != nil {
		t.Fatalf("second Grow: %v", err)
	}
	stats, _ = d.Stats()
	if stats[1].LocalBlocks != 3 {
		t.Fatalf("round-robin cursor did not persist: %+v", stats)
	}
}

func TestReplicaConsistency(t *testing.T) {
	d := newTestCluster(t, 3, 16)
	if err := d.Grow(64); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	for node := 0; node < d.Nodes(); node++ {
		got, err := d.NodeLen(node)
		if err != nil {
			t.Fatalf("NodeLen(%d): %v", node, err)
		}
		if got != d.Len() {
			t.Fatalf("node %d sees %d elements, driver sees %d", node, got, d.Len())
		}
	}
}

func TestReadWriteOverWire(t *testing.T) {
	d := newTestCluster(t, 2, 4)
	if err := d.Grow(16); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	for i := 0; i < 16; i++ {
		if err := d.Write(i, int64(i*11)); err != nil {
			t.Fatalf("Write(%d): %v", i, err)
		}
	}
	for i := 0; i < 16; i++ {
		got, err := d.Read(i)
		if err != nil || got != int64(i*11) {
			t.Fatalf("Read(%d) = %d, %v", i, got, err)
		}
	}
	// Data survives a grow untouched (blocks never move).
	if err := d.Grow(8); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	for i := 0; i < 16; i++ {
		if got, _ := d.Read(i); got != int64(i*11) {
			t.Fatalf("Read(%d) = %d after grow", i, got)
		}
	}
	if _, err := d.Read(100); err == nil {
		t.Fatal("out-of-range Read succeeded")
	}
	if err := d.Write(-1, 0); err == nil {
		t.Fatal("out-of-range Write succeeded")
	}
}

func TestWorkloadExecutesOnNodes(t *testing.T) {
	d := newTestCluster(t, 3, 32)
	if err := d.Grow(32 * 6); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	res, err := d.RunWorkload(WorkloadReq{
		Update:     true,
		Disjoint:   true, // race-detector clean: one stripe per (node, task)
		RangeLo:    0,
		RangeHi:    uint64(d.Len()),
		Pattern:    uint8(workload.Random),
		Tasks:      2,
		OpsPerTask: 500,
		Seed:       7,
	})
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %d", len(res))
	}
	var totalOps, remote uint64
	for i, r := range res {
		if r.Ops != 1000 {
			t.Fatalf("node %d ops = %d, want 1000", i, r.Ops)
		}
		if r.Nanos == 0 {
			t.Fatalf("node %d reported zero duration", i)
		}
		totalOps += r.Ops
		remote += r.RemoteOps
	}
	if totalOps != 3000 {
		t.Fatalf("total ops = %d", totalOps)
	}
	// With 3 nodes and uniform random indexing, about 2/3 of accesses are
	// remote; anything nonzero proves cross-node traffic happened.
	if remote == 0 {
		t.Fatal("no remote operations recorded")
	}
}

// The headline property over real sockets: reads keep running while the
// driver grows the array; every node keeps verifying snapshot liveness.
func TestConcurrentWorkloadAndGrow(t *testing.T) {
	d := newTestCluster(t, 3, 64)
	if err := d.Grow(64 * 3); err != nil {
		t.Fatalf("Grow: %v", err)
	}

	var wg sync.WaitGroup
	var workErr, growErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, workErr = d.RunWorkload(WorkloadReq{
			Pattern:    uint8(workload.Random),
			Tasks:      3,
			OpsPerTask: 4000,
			Seed:       3,
		})
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := d.Grow(64); err != nil {
				growErr = err
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	if workErr != nil {
		t.Fatalf("workload during grow: %v", workErr)
	}
	if growErr != nil {
		t.Fatalf("grow during workload: %v", growErr)
	}
	stats, err := d.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	for i, s := range stats {
		if s.Installs != 11 {
			t.Fatalf("node %d installs = %d, want 11", i, s.Installs)
		}
		if s.Synchronize != 11 {
			t.Fatalf("node %d synchronizes = %d, want 11", i, s.Synchronize)
		}
	}
	if got := d.Len(); got != 64*13 {
		t.Fatalf("final Len = %d", got)
	}
}

// Concurrent drivers racing to resize serialize on node 0's WriteLock.
func TestWriteLockSerializesDrivers(t *testing.T) {
	addrs, stop, err := SpawnLocal(2)
	if err != nil {
		t.Fatalf("SpawnLocal: %v", err)
	}
	defer stop()
	d1, err := Connect(addrs, 8)
	if err != nil {
		t.Fatalf("Connect d1: %v", err)
	}
	defer d1.Close()

	// A second "driver" shares the cluster but only manipulates the lock,
	// holding a long lease while d1 tries to grow.
	token, err := d1.AcquireLock()
	if err != nil {
		t.Fatalf("lock acquire: %v", err)
	}
	growDone := make(chan error, 1)
	go func() { growDone <- d1.Grow(8) }()
	select {
	case err := <-growDone:
		t.Fatalf("Grow completed while the WriteLock was held: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	if err := d1.ReleaseLock(token); err != nil {
		t.Fatalf("lock release: %v", err)
	}
	select {
	case err := <-growDone:
		if err != nil {
			t.Fatalf("Grow after release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Grow never acquired the released lock")
	}
}

func TestLockReleaseWithoutAcquireFails(t *testing.T) {
	d := newTestCluster(t, 1, 8)
	if err := d.ReleaseLock(42); err == nil {
		t.Fatal("release of unheld token succeeded")
	}
	// A real acquire/release pair works, and double release fails.
	token, err := d.AcquireLock()
	if err != nil {
		t.Fatalf("AcquireLock: %v", err)
	}
	if err := d.ReleaseLock(token); err != nil {
		t.Fatalf("ReleaseLock: %v", err)
	}
	if err := d.ReleaseLock(token); err == nil {
		t.Fatal("double release succeeded")
	}
}

func TestUnconfiguredNodeRejectsOps(t *testing.T) {
	node, err := NewArrayNode("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewArrayNode: %v", err)
	}
	defer node.Close()
	// Drive it with a raw client that skips configuration.
	cl, err := comm.Dial(node.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	if _, err := cl.AM(amAllocBlock, nil); err == nil {
		t.Fatal("alloc on unconfigured node succeeded")
	}
	if _, err := cl.AM(amRunWorkload, WorkloadReq{Tasks: 1, OpsPerTask: 1}.encode()); err == nil {
		t.Fatal("workload on unconfigured node succeeded")
	}
}

func TestDoubleConfigureRejected(t *testing.T) {
	addrs, stop, err := SpawnLocal(1)
	if err != nil {
		t.Fatalf("SpawnLocal: %v", err)
	}
	defer stop()
	d, err := Connect(addrs, 8)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	defer d.Close()
	req := configureReq{NodeID: 0, BlockSize: 8, Addrs: addrs}
	if _, err := d.clients[0].AM(amConfigure, req.encode()); err == nil {
		t.Fatal("second configure succeeded")
	}
}

func TestWorkloadOnEmptyArrayFails(t *testing.T) {
	d := newTestCluster(t, 1, 8)
	if _, err := d.RunWorkload(WorkloadReq{Tasks: 1, OpsPerTask: 1}); err == nil {
		t.Fatal("workload on empty array succeeded")
	}
}

func TestGrowValidation(t *testing.T) {
	d := newTestCluster(t, 1, 8)
	if err := d.Grow(0); err == nil {
		t.Fatal("Grow(0) succeeded")
	}
}

// Torture over TCP: continuous grows against continuous node-side read
// workloads; snapshot poison on the nodes catches reclamation bugs.
func TestTortureOverWire(t *testing.T) {
	if testing.Short() {
		t.Skip("torture test skipped in -short mode")
	}
	d := newTestCluster(t, 2, 32)
	if err := d.Grow(64); err != nil {
		t.Fatalf("Grow: %v", err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	// Updaters stripe the first half of the initial capacity, readers the
	// second half: concurrent workloads never share an element.
	half := uint64(d.Len() / 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo, hi := uint64(0), half
			if w == 1 {
				lo, hi = half, 2*half
			}
			for !stop.Load() {
				_, err := d.RunWorkload(WorkloadReq{
					Update:     w == 0,
					Disjoint:   true,
					RangeLo:    lo,
					RangeHi:    hi,
					Pattern:    uint8(workload.Sequential),
					Tasks:      2,
					OpsPerTask: 512,
					Seed:       uint64(w),
				})
				if err != nil {
					errs <- fmt.Errorf("workload: %w", err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 25; i++ {
		if err := d.Grow(32); err != nil {
			errs <- fmt.Errorf("grow: %w", err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestDisjointWorkloadValidation(t *testing.T) {
	d := newTestCluster(t, 2, 8)
	if err := d.Grow(16); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	// Missing range.
	if _, err := d.RunWorkload(WorkloadReq{Disjoint: true, Tasks: 1, OpsPerTask: 1}); err == nil {
		t.Fatal("disjoint workload without range succeeded")
	}
	// Range smaller than the slot count.
	if _, err := d.RunWorkload(WorkloadReq{
		Disjoint: true, RangeLo: 0, RangeHi: 3, Tasks: 2, OpsPerTask: 1,
	}); err == nil {
		t.Fatal("undersized disjoint range succeeded")
	}
	// Range beyond capacity.
	if _, err := d.RunWorkload(WorkloadReq{
		Disjoint: true, RangeLo: 0, RangeHi: 1 << 20, Tasks: 1, OpsPerTask: 1,
	}); err == nil {
		t.Fatal("out-of-capacity disjoint range succeeded")
	}
	// A valid disjoint run still works.
	if _, err := d.RunWorkload(WorkloadReq{
		Disjoint: true, RangeLo: 0, RangeHi: 16, Tasks: 2, OpsPerTask: 10,
	}); err != nil {
		t.Fatalf("valid disjoint workload failed: %v", err)
	}
}

// TestLocalOpDoesNotRaceRead: a node's own workload stores to an element it
// owns (localOp) while a driver reads that element remotely. Both sides move
// the element through comm's word-atomic element access, so the race
// detector sees no race and every read returns a value that was stored,
// never a mix of two.
func TestLocalOpDoesNotRaceRead(t *testing.T) {
	d, nodes := spawnChaosCluster(t, 1, 8, Options{CallTimeout: 5 * time.Second})
	if err := d.Grow(8); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	const idx = 3
	ref, off, err := d.locate(idx)
	if err != nil {
		t.Fatal(err)
	}
	vals := [2]int64{0x0101010101010101, -0x0101010101010102} // bytes 01… and fe…
	const rounds = 1000
	done := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			if err := nodes[ref.Node].localOp(ref.Seg, off, true, vals[i%2]); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < rounds; i++ {
		v, err := d.Read(idx)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if v != 0 && v != vals[0] && v != vals[1] {
			t.Fatalf("Read = %#x: a mix of the stored values", uint64(v))
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("localOp: %v", err)
	}
	if err := nodes[ref.Node].localOp(ref.Seg, off, false, 0); err != nil {
		t.Fatalf("local read: %v", err)
	}
}
