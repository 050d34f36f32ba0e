package main

// The benchmark's contract in one place: workload names with the reason each
// exists, the end-to-end metrics with their regression bounds, and the
// per-layer ledger with the end-to-end metric each row is predicted to move.
// BENCHMARK.json at the repository root repeats the names, units and bounds;
// TestSpecMatchesBenchmarkJSON keeps the two from drifting.

// Sizes common to every workload (see README.md for why these values).
const (
	blockSize  = 1024   // int64 elements per block, local and distributed
	localElems = 65536  // local-array workloads: 64 blocks, 512 KiB
	pointKeys  = 262144 // serve_point / serve_bulk key space
	durKeys    = 65536  // serve_resize / recover key space
	chunkOps   = 256    // index ops per timed chunk; also the QSBR checkpoint interval
	batchElems = 256    // elements per ReadMany / WriteMany
	writePct   = 10     // share of calls that write
	numClients = 2      // closed loop, fixed: this host has nproc=2
	numRounds  = 5      // a metric's value is the median over rounds
	spanEvery  = 64     // traced pass: one op span per this many calls
)

// val is the value every element holds: set-up preloads it, writes rewrite
// it, and every read is compared with it.
func val(k int) int64 { return 3*int64(k) + 7 }

type workloadSpec struct {
	Name string
	Why  string
	// Op names what op_p50_us/op_p99_us time on this workload, and Counts
	// what ops_per_s counts; both are printed beside the numbers.
	Op     string
	Counts string
}

var workloadSpecs = []workloadSpec{
	{"index_ebr", "Paper Fig. 2 path: ebr Enter/Exit, core index traversal and locale privatisation do all the work; comm TCP, dist and durable do none.",
		"chunk of 256 Load/Store", "verified Load/Store by both tasks"},
	{"index_qsbr", "Same core path under the other reclamation layer: an ebr gain must not move it, a qsbr or tasking change shows only here.",
		"chunk of 256 Load/Store + Checkpoint", "verified Load/Store by both tasks"},
	{"resize_ebr", "ebr Synchronize against a live pinned reader plus core resize, memory pools and locale.On: a read-side gain bought with a longer grace period shows here.",
		"Grow(1024) beside a pinned reader", "the concurrent reader's verified loads"},
	{"serve_point", "One frame per flush and one syscall pair per op: comm per-frame cost and dist locate/elemOp are the whole latency; batching has nothing to coalesce.",
		"Driver.Read of one element", "verified Read/Write elements by both clients"},
	{"serve_bulk", "Pipelined Start/Wait, the combining flusher and zero-copy replies do the work: a batching change must move this and must not move serve_point.",
		"Driver.ReadMany of 256 elements", "verified elements (not batches) by both clients"},
	{"serve_resize", "Reads beside the write side of dist/comm: what lease, alloc, per-region install, fencing and the node-side ebr grace period per flip cost a client that keeps reading.",
		"Driver.Read beside a client issuing Grow(1024)", "the reader's verified Reads"},
	{"recover", "Kill-to-serving on durable nodes: durable.ReadFile, snapshot restore, WAL replay, listener rebind and driver redial; its set-up pays snapshot and WAL fsyncs.",
		"node Close returned -> first verified Read of a key it owns", "restart cycles, one verified Read each"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloadSpecs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline median by which the metric may
	// worsen before a change counts as a regression (end-to-end only).
	Bound float64
}

// Every workload reports every end-to-end metric; workloadSpec.Op and
// .Counts say what the generic names mean on each. failed_frac is not in
// this list because it must be 0 and the contract forbids a metric that
// reads 0: it is carried by the attempted/failed pair and gated separately.
//
// The bounds are the contract's ceiling of 25 %. On the 2-vCPU shared VM the
// baseline was taken on, throughput and fsync latency drift by +-10 % over
// minutes whatever the run measures, and ten idle runs spread (quartile
// distance over median) by up to 14 % on the worst workload; a bound has to
// sit clear of that or it rejects changes that did nothing. README.md has the
// spreads per workload.
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

type layerSpec struct {
	metricSpec
	Layer string
	// Moves is the prediction written down before measuring: which
	// end-to-end metric on which workload this row should move.
	Moves string
}

func lm(layer, name, unit, better, moves string) layerSpec {
	return layerSpec{metricSpec{Name: name, Unit: unit, Better: better}, layer, moves}
}

var perLayer = []layerSpec{
	lm("ebr", "ebr.read_ns", "ns", "lower", "ops_per_s on index_ebr"),
	lm("ebr", "ebr.pin_tick_ns", "ns", "lower", "ops_per_s on resize_ebr"),
	lm("ebr", "ebr.sync_idle_ns", "ns", "lower", "op_p50_us on resize_ebr (floor)"),
	lm("ebr", "ebr.sync_busy_us", "us", "lower", "op_p50_us on resize_ebr; less, op_p99_us on serve_resize"),
	lm("ebr", "ebr.enter_retries", "count", "lower", "ops_per_s on index_ebr"),
	lm("ebr", "ebr.synchronizes", "count", "lower", "op_p50_us on resize_ebr"),
	lm("ebr", "ebr.allocs_per_read", "count", "lower", "ops_per_s on index_ebr"),

	lm("qsbr", "qsbr.checkpoint_ns", "ns", "lower", "ops_per_s on index_qsbr"),
	lm("qsbr", "qsbr.defer_reclaim_ns", "ns", "lower", "ops_per_s on index_qsbr"),
	lm("qsbr", "qsbr.reclaimed", "count", "higher", "ops_per_s on index_qsbr"),
	lm("qsbr", "qsbr.backlog_max", "count", "lower", "ops_per_s on index_qsbr"),

	lm("core", "core.load_local_ns", "ns", "lower", "ops_per_s on index_ebr, index_qsbr"),
	lm("core", "core.load_remote_ns", "ns", "lower", "ops_per_s on index_ebr, index_qsbr"),
	lm("core", "core.store_local_ns", "ns", "lower", "ops_per_s on index_ebr, index_qsbr"),
	lm("core", "core.reader_load_ns", "ns", "lower", "ops_per_s on resize_ebr"),
	lm("core", "core.reader_hit_ratio", "ratio", "higher", "ops_per_s on resize_ebr"),
	lm("core", "core.grow_us", "us", "lower", "op_p50_us on resize_ebr"),
	lm("core", "core.shrink_us", "us", "lower", "op_p50_us on resize_ebr"),
	lm("core", "core.allocs_per_load", "count", "lower", "ops_per_s on index_ebr, index_qsbr"),

	lm("locale", "locale.on_us", "us", "lower", "op_p50_us on resize_ebr"),
	lm("locale", "locale.coforall_us", "us", "lower", "setup_s on the three local workloads"),
	lm("locale", "locale.remote_msgs_per_op", "count", "lower", "ops_per_s on index_ebr, index_qsbr"),
	lm("locale", "memory.live_blocks_max", "count", "lower", "op_p50_us on resize_ebr"),

	lm("comm", "comm.get_rtt_us", "us", "lower", "op_p50_us on serve_point"),
	lm("comm", "comm.put_rtt_us", "us", "lower", "ops_per_s on serve_point"),
	lm("comm", "comm.am_rtt_us", "us", "lower", "op_p99_us on serve_resize (grow_p50_us in its extra block)"),
	lm("comm", "comm.pipelined_get_ns", "ns", "lower", "ops_per_s on serve_bulk"),
	lm("comm", "comm.frames_per_flush", "count", "higher", "ops_per_s on serve_bulk; must stay ~1 on serve_point"),
	lm("comm", "comm.bytes_per_flush", "B", "higher", "ops_per_s on serve_bulk"),
	lm("comm", "comm.allocs_per_get", "count", "lower", "op_p50_us on serve_point"),
	lm("comm", "comm.rpc_errors", "count", "lower", "failed on every serve workload"),
	lm("comm", "comm.rpc_timeouts", "count", "lower", "failed on every serve workload"),

	lm("dist", "dist.read_us", "us", "lower", "op_p50_us on serve_point"),
	lm("dist", "dist.write_us", "us", "lower", "ops_per_s on serve_point"),
	lm("dist", "dist.read_self_us", "us", "lower", "op_p50_us on serve_point"),
	lm("dist", "dist.readmany_ns_per_elem", "ns", "lower", "ops_per_s on serve_bulk"),
	lm("dist", "dist.grow_us", "us", "lower", "op_p99_us, ops_per_s on serve_resize"),
	lm("dist", "dist.grow_durable_us", "us", "lower", "setup_s on recover"),
	lm("dist", "dist.grow_rpcs", "count", "lower", "op_p99_us, ops_per_s on serve_resize"),
	lm("dist", "dist.region_flips_per_grow", "count", "lower", "op_p99_us, ops_per_s on serve_resize"),
	lm("dist", "dist.snapshot_ms", "ms", "lower", "setup_s on recover"),
	lm("dist", "dist.wal_replayed", "count", "lower", "op_p50_us on recover"),
	lm("dist", "dist.rpc_retries", "count", "lower", "op_p50_us on recover"),
	lm("dist", "dist.redials", "count", "lower", "op_p50_us on recover"),
	lm("dist", "dist.fenced", "count", "lower", "op_p99_us on serve_resize"),
	lm("dist", "dist.allocs_per_read", "count", "lower", "op_p50_us on serve_point"),

	lm("durable", "durable.append_us", "us", "lower", "setup_s and op_p50_us on recover"),
	lm("durable", "durable.write_atomic_ms", "ms", "lower", "setup_s on recover"),
	lm("durable", "durable.read_file_ms", "ms", "lower", "op_p50_us on recover"),
	lm("durable", "durable.bytes_per_payload_byte", "ratio", "lower", "op_p50_us on recover"),

	lm("obs", "obs.overhead_pct", "%", "lower", "nothing: the cost of the traced pass itself"),
	lm("obs", "obs.base_ops_per_s", "1/s", "higher", "nothing: the untraced base of obs.overhead_pct"),
}
