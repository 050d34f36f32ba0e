package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"rcuarray/internal/comm"
	"rcuarray/internal/core"
	"rcuarray/internal/durable"
	"rcuarray/internal/ebr"
	"rcuarray/internal/locale"
	"rcuarray/internal/obs"
	"rcuarray/internal/qsbr"
)

// The layer probes call each layer's public functions directly, one caller,
// fixed call counts, one span class per function. Their timings are ledger
// rows that say which layer moved; they are not gated. Their counts repeat
// exactly between two passes with the same seed.

type prober struct {
	e     *env
	cal   calibration
	track *spanTrack
	root  int64
	out   map[string]float64
	err   error // first error a probed call returned
}

// perOp times n back-to-back calls of fn under one span and returns ns per
// call with the empty probe loop's cost subtracted.
func (p *prober) perOp(span string, n int, fn func()) float64 {
	start := time.Now()
	d := timeLoop(n, fn)
	p.track.add(span, p.root, start, start.Add(d), n)
	ns := float64(d.Nanoseconds())/float64(n) - p.cal.EmptyLoopNs
	if ns < 0 {
		return 0
	}
	return ns
}

// note keeps the first error of a probed call; the pass fails on it.
func (p *prober) note(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// allocsPerOp is heap allocations per call of fn, process-wide: for the wire
// probes the node's serve goroutines run in this process and their
// allocations are part of the operation's cost.
func allocsPerOp(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

var (
	sinkInt64 int64
	sinkBusy  atomic.Int64
)

func (p *prober) probeEBR() {
	d := ebr.New()
	d.Observe(obs.NewRegistry())
	empty := func() {}
	read := func() { d.ReadSlot(0, empty) }
	p.out["ebr.read_ns"] = p.perOp("ebr.read", 1<<20, read)
	p.out["ebr.allocs_per_read"] = allocsPerOp(1<<14, read)

	pin := d.Pin(0, 0)
	p.out["ebr.pin_tick_ns"] = p.perOp("ebr.pin_tick", 1<<20, func() { pin.Tick() })
	pin.Unpin()

	p.out["ebr.sync_idle_ns"] = p.perOp("ebr.synchronize_idle", 1<<14, d.Synchronize)

	// Synchronize against one reader that ticks through default-budget pin
	// windows, doing a load's worth of work per tick as resize_ebr's reader
	// does: the writer's wait is the reader's time to its next repin, which
	// at this window length outlasts the writer's spin phase.
	table := preloaded(localElems)
	var stop atomic.Bool
	pinned, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		busy := d.Pin(1, 0)
		defer busy.Unpin()
		close(pinned)
		g := newOpGen(p.e.seed, 0, 1)
		var sum int64
		for !stop.Load() {
			busy.Tick()
			sum += table[g.index(localElems)]
		}
		sinkBusy.Store(sum)
	}()
	<-pinned
	p.out["ebr.sync_busy_us"] = p.perOp("ebr.synchronize_busy", 256, d.Synchronize) / 1e3
	stop.Store(true)
	<-done
	p.out["ebr.enter_retries"] = float64(d.Retries())
	p.out["ebr.synchronizes"] = float64(d.Synchronizes())
}

func (p *prober) probeQSBR() {
	d := qsbr.New()
	d.Observe(obs.NewRegistry())
	part := d.Register()
	defer d.Unregister(part)
	p.out["qsbr.checkpoint_ns"] = p.perOp("qsbr.checkpoint", 1<<20, func() { part.Checkpoint() })
	free := func() {}
	backlog := 0
	// Four deferrals per reclaiming checkpoint, so the backlog is visible.
	p.out["qsbr.defer_reclaim_ns"] = p.perOp("qsbr.defer_reclaim", 1<<16, func() {
		for i := 0; i < 4; i++ {
			part.Defer(free)
		}
		if n := part.Pending(); n > backlog {
			backlog = n
		}
		part.Checkpoint()
	})
	d.Drain(part, 8)
	p.out["qsbr.reclaimed"] = float64(d.Reclaimed())
	p.out["qsbr.backlog_max"] = float64(backlog)
}

// probeCore measures the local array and the locale runtime under it, from
// the driver task on locale 0 of a two-locale cluster.
func (p *prober) probeCore() {
	c := locale.NewCluster(locale.Config{Locales: 2, WorkersPerLocale: 1})
	defer c.Shutdown()
	c.Run(func(t *locale.Task) {
		a := core.New[int64](t, core.Options{BlockSize: blockSize, InitialCapacity: localElems})
		defer a.Destroy(t)
		a.CopyIn(t, 0, preloaded(localElems))

		// Index streams by owner, drawn from the seeded generator.
		const stream = 4096
		g := newOpGen(p.e.seed, 0, 1)
		var local, remote, mixed []int
		for len(local) < stream || len(remote) < stream {
			idx := g.index(localElems)
			if a.Index(t, idx).Owner() == t.Here().ID() {
				if len(local) < stream {
					local = append(local, idx)
				}
			} else if len(remote) < stream {
				remote = append(remote, idx)
			}
		}
		for len(mixed) < stream {
			mixed = append(mixed, g.index(localElems))
		}
		msgs := func() uint64 {
			f := c.Fabric()
			return f.TotalMsgs(comm.OpGet) + f.TotalMsgs(comm.OpPut) + f.TotalMsgs(comm.OpAM)
		}

		const n = 1 << 20
		i := 0
		loadFrom := func(idxs []int) func() {
			return func() {
				sinkInt64 += a.Load(t, idxs[i&(stream-1)])
				i++
			}
		}
		m0 := msgs()
		p.out["core.load_local_ns"] = p.perOp("core.load_local", n, loadFrom(local))
		p.out["core.load_remote_ns"] = p.perOp("core.load_remote", n, loadFrom(remote))
		p.out["locale.remote_msgs_per_op"] = float64(msgs()-m0) / (2 * n)
		p.out["core.store_local_ns"] = p.perOp("core.store_local", n, func() {
			idx := local[i&(stream-1)]
			a.Store(t, idx, val(idx))
			i++
		})
		p.out["core.allocs_per_load"] = allocsPerOp(1<<14, loadFrom(mixed))

		rd := a.Reader(t)
		p.out["core.reader_load_ns"] = p.perOp("core.reader_load", n, func() {
			sinkInt64 += rd.Load(mixed[i&(stream-1)])
			i++
		})
		hits, misses := rd.CacheStats()
		rd.Close()
		p.out["core.reader_hit_ratio"] = float64(hits) / float64(hits+misses)

		// Resizes with no reader anywhere: the floor under resize_ebr.
		const resizes = 256
		p.out["core.grow_us"] = p.perOp("core.grow", resizes, func() { a.Grow(t, blockSize) }) / 1e3
		p.out["core.shrink_us"] = p.perOp("core.shrink", resizes, func() { a.Shrink(t, blockSize) }) / 1e3
		var live int64
		for l := 0; l < c.NumLocales(); l++ {
			live += c.Locale(l).MemStats().LiveMax()
		}
		p.out["memory.live_blocks_max"] = float64(live)

		nop := func(*locale.Task) {}
		p.out["locale.on_us"] = p.perOp("locale.on", 1<<16, func() { t.On(1, nop) }) / 1e3
		p.out["locale.coforall_us"] = p.perOp("locale.coforall", 2048, func() { t.Coforall(nop) }) / 1e3
	})
}

// probeComm measures the wire alone: one node, one segment, one blocking
// caller with 8-byte payloads.
func (p *prober) probeComm() error {
	n, err := comm.NewNodeConfig("127.0.0.1:0", comm.NodeConfig{Obs: obs.NewRegistry()})
	if err != nil {
		return err
	}
	defer n.Close()
	seg := n.AllocSegment(4096)
	const echo = 1
	n.Handle(echo, func(b []byte) ([]byte, error) { return b, nil })
	c, err := comm.DialConfig(n.Addr(), comm.ClientConfig{CallTimeout: 5 * time.Second, Obs: obs.NewRegistry(), Peer: "probe"})
	if err != nil {
		return err
	}
	defer c.Close()

	payload := make([]byte, 8)
	get := func() {
		_, err := c.Get(seg, 0, 8)
		p.note(err)
	}
	const calls = 20000
	p.out["comm.get_rtt_us"] = p.perOp("comm.get", calls, get) / 1e3
	p.out["comm.put_rtt_us"] = p.perOp("comm.put", calls, func() { p.note(c.Put(seg, 0, payload)) }) / 1e3
	p.out["comm.am_rtt_us"] = p.perOp("comm.am", calls, func() {
		_, err := c.AM(echo, payload)
		p.note(err)
	}) / 1e3
	const window = 32
	pend := make([]*comm.Pending, window)
	p.out["comm.pipelined_get_ns"] = p.perOp("comm.pipelined_get", calls/window, func() {
		for i := range pend {
			pend[i] = c.StartGet(seg, 0, 8)
		}
		for _, pd := range pend {
			_, err := pd.Wait()
			p.note(err)
		}
	}) / window
	p.out["comm.allocs_per_get"] = allocsPerOp(4096, get)
	return nil
}

// probeDist measures the driver over two in-memory nodes, then the cost the
// data dir adds, then one restart's replay.
func (p *prober) probeDist() error {
	s, err := p.e.newServeCluster(durKeys, false)
	if err != nil {
		return err
	}
	defer s.close()
	g := newOpGen(p.e.seed, 0, 1)
	read := func() {
		idx := g.index(durKeys)
		v, err := s.d.Read(idx)
		p.note(err)
		if err == nil && v != val(idx) {
			p.note(fmt.Errorf("dist probe: Read(%d) = %d, want %d", idx, v, val(idx)))
		}
	}
	const calls = 20000
	p.out["dist.read_us"] = p.perOp("dist.read", calls, read) / 1e3
	p.out["dist.write_us"] = p.perOp("dist.write", calls, func() {
		idx := g.index(durKeys)
		p.note(s.d.Write(idx, val(idx)))
	}) / 1e3
	p.out["dist.allocs_per_read"] = allocsPerOp(4096, read)
	idxs := make([]int, batchElems)
	p.out["dist.readmany_ns_per_elem"] = p.perOp("dist.readmany", 512, func() {
		for i := range idxs {
			idxs[i] = g.index(durKeys)
		}
		_, err := s.d.ReadMany(idxs)
		p.note(err)
	}) / batchElems

	// Grow on idle in-memory nodes, with the AMs and region flips it costs.
	// The two NodeObsSnapshot calls are AMs themselves: each node serves
	// exactly one of them between the two readings, which is subtracted.
	const grows = 200
	served := func() (ams, flips uint64, err error) {
		for i := range s.nodes {
			ns, err := s.d.NodeObsSnapshot(i)
			if err != nil {
				return 0, 0, err
			}
			ams += ns.Counters[`comm_served_total{op="AM"}`]
			flips += ns.Counters["dist_region_flips_total"]
		}
		return ams, flips, nil
	}
	am0, fl0, err := served()
	if err != nil {
		return err
	}
	p.out["dist.grow_us"] = p.perOp("dist.grow", grows, func() { p.note(s.d.Grow(blockSize)) }) / 1e3
	am1, fl1, err := served()
	if err != nil {
		return err
	}
	p.out["dist.grow_rpcs"] = float64(am1-am0-uint64(len(s.nodes))) / grows
	p.out["dist.region_flips_per_grow"] = float64(fl1-fl0) / grows

	ds, err := p.e.newServeCluster(durKeys, true)
	if err != nil {
		return err
	}
	defer ds.close()
	p.out["dist.grow_durable_us"] = p.perOp("dist.grow_durable", grows, func() { p.note(ds.d.Grow(blockSize)) }) / 1e3
	node := 0
	p.out["dist.snapshot_ms"] = p.perOp("dist.snapshot", 8, func() {
		_, err := ds.d.SnapshotNode(node % len(ds.nodes))
		p.note(err)
		node++
	}) / 1e6
	for i := 0; i < walTail; i++ {
		p.note(ds.d.Grow(blockSize))
	}
	ds.nodes[victim].Close()
	if err := ds.restart(); err != nil {
		return err
	}
	stats, err := ds.d.Stats()
	if err != nil {
		return err
	}
	p.out["dist.wal_replayed"] = float64(stats[victim].WALReplayed)
	return nil
}

func (p *prober) probeDurable() error {
	dir, err := os.MkdirTemp(p.e.tmpRoot, "durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	w, err := durable.Create(filepath.Join(dir, "probe.log"))
	if err != nil {
		return err
	}
	rec := make([]byte, 64)
	p.out["durable.append_us"] = p.perOp("durable.append", 512, func() { p.note(w.Append(rec)) }) / 1e3
	if err := w.Close(); err != nil {
		return err
	}

	payload := make([]byte, 512<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	path := filepath.Join(dir, "probe.snap")
	var size int64
	p.out["durable.write_atomic_ms"] = p.perOp("durable.write_atomic", 16, func() {
		n, err := durable.WriteFileAtomic(path, [][]byte{payload})
		p.note(err)
		size = n
	}) / 1e6
	p.out["durable.read_file_ms"] = p.perOp("durable.read_file", 16, func() {
		got, torn, err := durable.ReadFile(path)
		p.note(err)
		if err == nil && (torn || len(got) != 1 || len(got[0]) != len(payload)) {
			p.note(errors.New("durable probe: ReadFile did not return the payload written"))
		}
	}) / 1e6
	p.out["durable.bytes_per_payload_byte"] = float64(size) / float64(len(payload))
	return nil
}

// runProbes runs every layer's probes and returns the ledger rows they fill.
func runProbes(e *env, cal calibration) (map[string]float64, error) {
	track := e.spans.track()
	start := time.Now()
	p := &prober{e: e, cal: cal, track: track, out: map[string]float64{}}
	p.root = e.spans.newID()
	p.probeEBR()
	p.probeQSBR()
	p.probeCore()
	for _, probe := range []func() error{p.probeComm, p.probeDist, p.probeDurable} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	if p.err != nil {
		return nil, fmt.Errorf("a probed call failed: %w", p.err)
	}
	// A layer's self time is its span minus the child probe it contains.
	p.out["dist.read_self_us"] = p.out["dist.read_us"] - p.out["comm.get_rtt_us"]
	track.addID(p.root, "probes", 0, start, time.Now(), 0)
	return p.out, nil
}
