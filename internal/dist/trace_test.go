package dist

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"rcuarray/internal/comm"
	"rcuarray/internal/obs"
)

func withObsOn(t *testing.T) {
	t.Helper()
	was := obs.On()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(was) })
}

// spawnTracedCluster starts n nodes, each with its own registry, and a driver
// with a seeded registry of its own — the shape `rcudist -trace-out` runs.
func spawnTracedCluster(t *testing.T, n int, seed uint64) (*Driver, *obs.Registry) {
	t.Helper()
	nodes, stop, err := SpawnLocalNodesOpts(n, func(int) NodeOptions {
		return NodeOptions{Comm: comm.NodeConfig{Obs: obs.NewRegistry()}}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	addrs := make([]string, n)
	for i, node := range nodes {
		addrs[i] = node.Addr()
	}
	reg := obs.NewRegistry()
	d, err := ConnectOpts(addrs, 128, Options{Obs: reg, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d, reg
}

// tracedWorkload issues a fixed, sequential op sequence: a resize, a spread
// of reads and writes touching every node, and one bulk write and read of
// the whole array.
func tracedWorkload(t *testing.T, d *Driver) {
	t.Helper()
	if err := d.Grow(512); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		idx := i * 64
		if err := d.Write(idx, int64(i)); err != nil {
			t.Fatal(err)
		}
		if v, err := d.Read(idx); err != nil || v != int64(i) {
			t.Fatalf("read back idx %d: v=%d err=%v", idx, v, err)
		}
	}
	idxs := make([]int, 512)
	vals := make([]int64, 512)
	for i := range idxs {
		idxs[i], vals[i] = i, int64(3*i)
	}
	if err := d.WriteMany(idxs, vals); err != nil {
		t.Fatal(err)
	}
	if got, err := d.ReadMany(idxs); err != nil || got[511] != vals[511] {
		t.Fatalf("ReadMany: %v", err)
	}
}

// TestTracedBulkFrameSpans: a traced batch records one client RPC span per
// (batch, node) frame, each with its own span id, and the nodes record the
// handler spans that the merged trace links to them. The workload's 8 point
// writes and 8 point reads are one-element PUTV and GETV frames, so each adds
// one span of its own on both sides.
func TestTracedBulkFrameSpans(t *testing.T) {
	withObsOn(t)
	d, reg := spawnTracedCluster(t, 3, 5)
	tracedWorkload(t, d)
	ids := map[string]map[uint64]bool{"rpc.PUTV": {}, "rpc.GETV": {}}
	for _, e := range reg.Tracer().Events() {
		if m := ids[e.Name]; m != nil && e.Phase == obs.PhaseComplete {
			m[e.ID] = true
		}
	}
	for name, m := range ids {
		// 512 elements in blocks of 128 cover all three nodes.
		if len(m) != 3+8 {
			t.Errorf("%s spans with distinct ids: %d, want one per node (3) and one per point op (8)", name, len(m))
		}
	}
	dumps, err := d.CollectTrace(4)
	if err != nil {
		t.Fatal(err)
	}
	handled := 0
	for _, dump := range dumps {
		for _, e := range dump.Events {
			if e.Name == "handle.GETV" || e.Name == "handle.PUTV" {
				handled++
			}
		}
	}
	if handled != 6+16 {
		t.Errorf("nodes recorded %d GETV/PUTV handler spans, want 6 for the batches and 16 for the point ops", handled)
	}
}

// TestTracedGrowFlowLinkage runs a traced resize + element ops against a real
// loopback cluster, collects every node's ring over the AM plane, and asserts
// the merged timeline links client and handler spans: at least one cross-node
// flow arrow and zero orphan spans.
func TestTracedGrowFlowLinkage(t *testing.T) {
	withObsOn(t)
	d, reg := spawnTracedCluster(t, 3, 42)
	tracedWorkload(t, d)

	dumps, err := d.CollectTrace(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 3 {
		t.Fatalf("collected %d dumps, want 3", len(dumps))
	}
	var buf bytes.Buffer
	stats, err := obs.WriteClusterTrace(&buf, reg.Tracer().Events(), "driver", dumps)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FlowArrows < 1 {
		t.Fatalf("merged trace has no flow arrows (stats %+v)", stats)
	}
	if stats.OrphanSpans != 0 {
		t.Fatalf("merged trace has %d orphan spans (stats %+v)", stats.OrphanSpans, stats)
	}
}

// TestSeededReplayDeterminism: two drivers with the same seed issuing the
// same sequential op sequence must mint identical span topologies — the
// property that lets a chaos replay line up against a recorded trace.
func TestSeededReplayDeterminism(t *testing.T) {
	withObsOn(t)
	run := func() map[string]int {
		d, reg := spawnTracedCluster(t, 2, 7)
		tracedWorkload(t, d)
		spans := map[string]int{}
		for _, e := range reg.Tracer().Events() {
			if e.Phase == obs.PhaseComplete && e.ID != 0 {
				spans[fmt.Sprintf("%s/%x", e.Name, e.ID)]++
			}
		}
		return spans
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("traced run recorded no identified spans")
	}
	for k, n := range a {
		if b[k] != n {
			t.Fatalf("span %s: run A saw %d, run B saw %d", k, n, b[k])
		}
	}
	for k, n := range b {
		if a[k] != n {
			t.Fatalf("span %s: run B saw %d, run A saw %d", k, n, a[k])
		}
	}
}

// TestTraceProbeOffset checks the RTT-midpoint clock-offset estimate against
// ground truth: the node's trace clock is started well before the driver's,
// so the true offset is large and negative, and over loopback the estimate
// must land within a few milliseconds of it.
func TestTraceProbeOffset(t *testing.T) {
	withObsOn(t)
	nodeReg := obs.NewRegistry()
	nodeTr := nodeReg.Tracer() // starts the node's trace clock
	node, err := NewArrayNodeOpts("127.0.0.1:0", NodeOptions{Comm: comm.NodeConfig{Obs: nodeReg}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	time.Sleep(60 * time.Millisecond)

	driverReg := obs.NewRegistry()
	driverTr := driverReg.Tracer()
	d, err := ConnectOpts([]string{node.Addr()}, 128, Options{Obs: driverReg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	offset, err := d.TraceProbe(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Adjacent reads of both clocks give the true offset to within the reads'
	// own spacing (microseconds).
	truth := driverTr.Now() - nodeTr.Now()
	diff := offset - truth
	if diff < 0 {
		diff = -diff
	}
	if diff > (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("probe offset %v vs ground truth %v: error %v exceeds 5ms",
			time.Duration(offset), time.Duration(truth), time.Duration(diff))
	}
	if truth > -(40 * time.Millisecond).Nanoseconds() {
		t.Fatalf("test setup failed to skew clocks: ground truth %v", time.Duration(truth))
	}
}
