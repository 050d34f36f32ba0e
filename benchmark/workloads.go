package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rcuarray"
	"rcuarray/internal/comm"
	"rcuarray/internal/dist"
	"rcuarray/internal/obs"
)

// workloadFuncs maps a workload name to the function that runs one round of
// it: build a fresh system, time the set-up, warm, measure, check, tear down.
var workloadFuncs = map[string]func(*env) (roundOut, error){
	"index_ebr":    func(e *env) (roundOut, error) { return runIndex(e, rcuarray.EBR) },
	"index_qsbr":   func(e *env) (roundOut, error) { return runIndex(e, rcuarray.QSBR) },
	"resize_ebr":   runResizeEBR,
	"serve_point":  runServePoint,
	"serve_bulk":   runServeBulk,
	"serve_resize": runServeResize,
	"recover":      runRecover,
}

// preloaded returns val(0..n).
func preloaded(n int) []int64 {
	buf := make([]int64, n)
	for i := range buf {
		buf[i] = val(i)
	}
	return buf
}

// checkLocal is the local workloads' end of round: the array is back at its
// set-up length and a full CopyOut holds the expected value everywhere.
func (e *env) checkLocal(o *roundOut, t *rcuarray.Task, a *rcuarray.Array[int64]) {
	o.check(a.Len(t) == localElems, "Len = %d at the end of the round, want %d", a.Len(t), localElems)
	got := make([]int64, localElems)
	a.CopyOut(t, 0, got)
	wrong := 0
	for i, v := range got {
		if v != e.expect(i) {
			wrong++
		}
	}
	o.check(wrong == 0, "CopyOut: %d of %d elements wrong", wrong, len(got))
}

// ---- local array workloads -------------------------------------------------

// runIndex is the paper's Figure 2 path: one task per locale doing 90 %
// verified Load / 10 % Store at uniform random indices, about half of them
// on the other locale.
func runIndex(e *env, reclaim rcuarray.Reclaim) (roundOut, error) {
	t0 := time.Now()
	c := rcuarray.NewCluster(rcuarray.ClusterConfig{Locales: 2, TasksPerLocale: 1})
	defer c.Shutdown()
	var out roundOut
	c.Run(func(t *rcuarray.Task) {
		a := rcuarray.New[int64](t, rcuarray.Options{BlockSize: blockSize, Reclaim: reclaim, InitialCapacity: localElems})
		defer a.Destroy(t)
		a.CopyIn(t, 0, preloaded(localElems))
		setup := time.Since(t0)
		if e.setupOnly {
			out.Setups = []float64{setup.Seconds()}
			return
		}

		runs := make([]clientRun, e.clients)
		t.Coforall(func(sub *rcuarray.Task) {
			id := sub.Here().ID()
			if id >= e.clients {
				return
			}
			g := newOpGen(e.seed, id, e.clients)
			runs[id] = e.newLoop("index.chunk").run(func() call {
				var c call
				for i := 0; i < chunkOps; i++ {
					idx := g.index(localElems)
					if g.write() {
						a.Store(sub, idx, val(idx))
						c.ok++
					} else if a.Load(sub, idx) == e.expect(idx) {
						c.ok++
					} else {
						c.bad++
					}
				}
				if reclaim == rcuarray.QSBR {
					sub.Checkpoint()
				}
				return c
			})
		})
		out = finish(setup, runs...)
		e.checkLocal(&out, t, a)
	})
	return out, nil
}

// growsPerShrink bounds resize_ebr's array: after this many one-block grows
// the grown tail is shrunk away again, so every round walks the same sizes.
const growsPerShrink = 8

// runResizeEBR times Grow against a live pinned reader: a task on locale 1
// loads through one Reader session while the driver task on locale 0 loops
// {8 x timed Grow(1024), Shrink(8192)}.
func runResizeEBR(e *env) (roundOut, error) {
	t0 := time.Now()
	c := rcuarray.NewCluster(rcuarray.ClusterConfig{Locales: 2, TasksPerLocale: 2})
	defer c.Shutdown()
	var out roundOut
	c.Run(func(t *rcuarray.Task) {
		a := rcuarray.New[int64](t, rcuarray.Options{BlockSize: blockSize, Reclaim: rcuarray.EBR, InitialCapacity: localElems})
		defer a.Destroy(t)
		a.CopyIn(t, 0, preloaded(localElems))
		setup := time.Since(t0)
		if e.setupOnly {
			out.Setups = []float64{setup.Seconds()}
			return
		}

		var phase atomic.Int32
		var reader, grower clientRun
		var hits, misses uint64
		t.Coforall(func(sub *rcuarray.Task) {
			if sub.Here().ID() == 1 {
				g := newOpGen(e.seed, 0, 1)
				rd := a.Reader(sub)
				defer rd.Close()
				reader = e.follow("reader.chunk", &phase, func() call {
					var c call
					for i := 0; i < chunkOps; i++ {
						idx := g.index(localElems)
						if rd.Load(idx) == e.expect(idx) {
							c.ok++
						} else {
							c.bad++
						}
					}
					return c
				})
				hits, misses = rd.CacheStats()
				return
			}
			l := e.newLoop("core.grow")
			l.phase = &phase
			grown := 0
			grower = l.run(func() call {
				if grown == growsPerShrink {
					a.Shrink(sub, grown*blockSize)
					grown = 0
					return call{untimed: true}
				}
				a.Grow(sub, blockSize)
				grown++
				return call{ok: 1}
			})
			if grown > 0 {
				a.Shrink(sub, grown*blockSize)
			}
		})
		reader.role, grower.role = roleRate, roleLat
		out = finish(setup, reader, grower)
		out.Extra["grows"] = float64(grower.ops)
		if hits+misses > 0 {
			out.Extra["reader_hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		e.checkLocal(&out, t, a)
	})
	return out, nil
}

// ---- distributed workloads -------------------------------------------------

// serveCluster is two array nodes on loopback TCP and one connected driver.
type serveCluster struct {
	nodes []*dist.ArrayNode
	addrs []string
	dirs  []string // per-node data dirs; nil for in-memory nodes
	base  string   // temp dir holding dirs, removed on close
	d     *dist.Driver
	reg   *obs.Registry // the driver's registry; nil unless traced
}

func nodeOptions(dir string) dist.NodeOptions {
	return dist.NodeOptions{Comm: comm.NodeConfig{FrameTimeout: 5 * time.Second}, DataDir: dir}
}

// newServeCluster spawns the nodes, connects, grows to keys elements and
// preloads val. On error everything already started is torn down.
func (e *env) newServeCluster(keys int, durable bool) (_ *serveCluster, err error) {
	s := &serveCluster{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if durable {
		if s.base, err = os.MkdirTemp(e.tmpRoot, "nodes-"); err != nil {
			return nil, err
		}
		s.dirs = []string{filepath.Join(s.base, "n0"), filepath.Join(s.base, "n1")}
	}
	s.nodes, _, err = dist.SpawnLocalNodesOpts(2, func(i int) dist.NodeOptions {
		if durable {
			return nodeOptions(s.dirs[i])
		}
		return nodeOptions("")
	})
	if err != nil {
		return nil, fmt.Errorf("spawning nodes: %w", err)
	}
	for _, n := range s.nodes {
		s.addrs = append(s.addrs, n.Addr())
	}
	if e.spans != nil {
		s.reg = obs.NewRegistry()
	}
	s.d, err = dist.ConnectOpts(s.addrs, blockSize, dist.Options{CallTimeout: 5 * time.Second, Seed: e.seed | 1, Obs: s.reg})
	if err != nil {
		return nil, fmt.Errorf("connecting: %w", err)
	}
	if err := s.d.Grow(keys); err != nil {
		return nil, fmt.Errorf("growing to %d keys: %w", keys, err)
	}
	const step = 16 * blockSize
	idxs := make([]int, step)
	vals := make([]int64, step)
	for lo := 0; lo < keys; lo += step {
		for i := range idxs {
			idxs[i], vals[i] = lo+i, val(lo+i)
		}
		if err := s.d.WriteMany(idxs, vals); err != nil {
			return nil, fmt.Errorf("preloading: %w", err)
		}
	}
	return s, nil
}

// close shuts the driver and every node down and removes the data dirs; it
// tolerates a partly built cluster and nodes already closed.
func (s *serveCluster) close() {
	if s.d != nil {
		s.d.Close()
	}
	for _, n := range s.nodes {
		n.Close()
	}
	if s.base != "" {
		os.RemoveAll(s.base)
	}
}

// clients runs fn once per closed-loop client and waits for all of them.
func (e *env) runClients(fn func(client int) clientRun) []clientRun {
	runs := make([]clientRun, e.clients)
	var wg sync.WaitGroup
	for c := 0; c < e.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	return runs
}

// sweep re-reads every stride-th key below keys as one end-of-round check.
func (e *env) sweep(o *roundOut, d *dist.Driver, keys, stride int) {
	var idxs []int
	for k := 0; k < keys; k += stride {
		idxs = append(idxs, k)
	}
	got, err := d.ReadMany(idxs)
	wrong := 0
	for i := range got {
		if got[i] != e.expect(idxs[i]) {
			wrong++
		}
	}
	o.check(err == nil && wrong == 0, "sweep of every %dth key: err=%v, %d of %d wrong", stride, err, wrong, len(idxs))
}

// runServe is the round shared by serve_point and serve_bulk: two in-memory
// nodes holding pointKeys keys, every client looping over the call that
// client builds for itself, then a sweep of every 97th key.
func runServe(e *env, span string, client func(g *opGen, d *dist.Driver) func() call) (roundOut, error) {
	t0 := time.Now()
	s, err := e.newServeCluster(pointKeys, false)
	if err != nil {
		return roundOut{}, err
	}
	defer s.close()
	setup := time.Since(t0)
	if e.setupOnly {
		return roundOut{Setups: []float64{setup.Seconds()}}, nil
	}
	runs := e.runClients(func(c int) clientRun {
		g := newOpGen(e.seed, c, e.clients)
		return e.newLoop(span).run(client(&g, s.d))
	})
	out := finish(setup, runs...)
	e.sweep(&out, s.d, pointKeys, 97)
	s.observe(&out)
	return out, nil
}

// runServePoint: every call is one element on the wire, one frame per flush.
func runServePoint(e *env) (roundOut, error) {
	return runServe(e, "dist.read", func(g *opGen, d *dist.Driver) func() call {
		return func() call {
			idx := g.index(pointKeys)
			if g.write() {
				if err := d.Write(idx, val(idx)); err != nil {
					return call{bad: 1, untimed: true}
				}
				return call{ok: 1, untimed: true}
			}
			if v, err := d.Read(idx); err != nil || v != e.expect(idx) {
				return call{bad: 1}
			}
			return call{ok: 1}
		}
	})
}

// runServeBulk: every call is a 256-element batch, pipelined per node.
func runServeBulk(e *env) (roundOut, error) {
	return runServe(e, "dist.readmany", func(g *opGen, d *dist.Driver) func() call {
		idxs := make([]int, batchElems)
		vals := make([]int64, batchElems)
		return func() call {
			for i := range idxs {
				idxs[i] = g.index(pointKeys)
			}
			if g.write() {
				for i, idx := range idxs {
					vals[i] = val(idx)
				}
				if err := d.WriteMany(idxs, vals); err != nil {
					return call{bad: batchElems, untimed: true}
				}
				return call{ok: batchElems, untimed: true}
			}
			got, err := d.ReadMany(idxs)
			if err != nil {
				return call{bad: batchElems}
			}
			var c call
			for i, idx := range idxs {
				if got[i] == e.expect(idx) {
					c.ok++
				} else {
					c.bad++
				}
			}
			return c
		}
	})
}

// warmGrows is serve_resize's fixed warm-up, a count like the measured phase.
const warmGrows = 32

// runServeResize: client A reads the original keys while client B issues a
// fixed number of Grow(1024). The nodes are in memory: on a DataDir a
// Grow is three or four serial fsyncs, and on a shared disk whose fsync
// latency drifts by a quarter within minutes no statistic of it repeats from
// run to run. What the data dir adds is in the ledger (dist.grow_durable_us,
// durable.append_us) and in recover.
func runServeResize(e *env) (roundOut, error) {
	t0 := time.Now()
	s, err := e.newServeCluster(durKeys, false)
	if err != nil {
		return roundOut{}, err
	}
	defer s.close()
	setup := time.Since(t0)
	if e.setupOnly {
		return roundOut{Setups: []float64{setup.Seconds()}}, nil
	}

	var phase atomic.Int32
	var reader, grower clientRun
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g := newOpGen(e.seed, 0, 1)
		reader = e.follow("dist.read", &phase, func() call {
			idx := g.index(durKeys)
			if v, err := s.d.Read(idx); err != nil || v != e.expect(idx) {
				return call{bad: 1}
			}
			return call{ok: 1}
		})
	}()
	l := e.newLoop("dist.grow")
	l.phase = &phase
	l.calls, l.warmCalls = e.grows, warmGrows
	if e.calls > 0 {
		l.warmCalls = 0
	}
	grower = l.run(func() call {
		if err := s.d.Grow(blockSize); err != nil {
			return call{bad: 1}
		}
		return call{ok: 1}
	})
	wg.Wait()

	// The gated numbers are the reader's: what a resize costs the clients
	// beside it. The Grow latencies are reported, not gated: a Grow is a
	// dozen serial RPCs and grace-period waits, and on a shared 2-vCPU host
	// its median wandered by a quarter between idle runs.
	grower.role = roleNone
	out := finish(setup, reader, grower)
	slices.Sort(grower.lat)
	if p50, ok := percentile(grower.lat, 50); ok {
		out.Extra["grow_p50_us"] = float64(p50) / 1e3
	}
	if p99, ok := percentile(grower.lat, 99); ok {
		out.Extra["grow_p99_us"] = float64(p99) / 1e3
	}
	out.Extra["grows"] = float64(grower.ops)
	want := durKeys + (l.warmCalls+e.grows)*blockSize
	out.check(s.d.Len() == want, "Len = %d, want %d", s.d.Len(), want)
	last, err := s.d.Read(want - 1)
	out.check(err == nil && last == 0, "last element = %d, err=%v, want 0", last, err)
	n0, err0 := s.d.NodeLen(0)
	n1, err1 := s.d.NodeLen(1)
	out.check(err0 == nil && err1 == nil && n0 == want && n1 == want, "NodeLen = %d/%d (err %v/%v), want %d", n0, n1, err0, err1, want)
	e.sweep(&out, s.d, durKeys, 97)
	s.observe(&out)
	return out, nil
}

// walTail is how many one-block grows recover leaves in the WAL after the
// snapshot, so every restart restores a snapshot and replays a tail.
const walTail = 4

// victim is the node recover restarts.
const victim = 1

// restart brings the closed victim back on its old address and data dir,
// retrying while the kernel releases the listening port.
func (s *serveCluster) restart() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		n, err := dist.NewArrayNodeOpts(s.addrs[victim], nodeOptions(s.dirs[victim]))
		if err == nil {
			s.nodes[victim] = n
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("restarting node %d on %s: %w", victim, s.addrs[victim], err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// recoverCycles is how many restarts one cluster serves. Every restart leaves
// one more (empty) WAL file behind, so restart time climbs with the cycle
// number; a fixed count per fresh cluster keeps the state each cycle sees
// the same in every round and on both sides of a later A/B.
const recoverCycles = 60

// runRecover times node Close returned -> first verified Read of a key the
// node owns, after a restart from its data dir. Close is graceful: one
// process cannot discard unflushed bytes, so this times recovery and checks
// read-back; crash consistency stays the chaos tier's job. A round is
// e.groups fresh clusters of recoverCycles restarts each.
func runRecover(e *env) (roundOut, error) {
	if e.setupOnly {
		return recoverGroup(e, 0)
	}
	var out roundOut
	for g := 0; g < e.groups; g++ {
		o, err := recoverGroup(e, uint64(g))
		if err != nil {
			return roundOut{}, err
		}
		if g == 0 {
			out = o
			continue
		}
		out.Setups = append(out.Setups, o.Setups...)
		out.Elapsed += o.Elapsed
		out.Ops += o.Ops
		out.Attempted += o.Attempted
		out.Failed += o.Failed
		out.Lat = append(out.Lat, o.Lat...)
		out.Notes = append(out.Notes, o.Notes...)
	}
	slices.Sort(out.Lat)
	out.OpsPerS = float64(out.Ops) / out.Elapsed.Seconds()
	out.Extra["cycles"] = float64(out.Ops)
	return out, nil
}

func recoverGroup(e *env, group uint64) (roundOut, error) {
	t0 := time.Now()
	s, err := e.newServeCluster(durKeys, true)
	if err != nil {
		return roundOut{}, err
	}
	defer s.close()
	for i := range s.nodes {
		if _, err := s.d.SnapshotNode(i); err != nil {
			return roundOut{}, fmt.Errorf("snapshot of node %d: %w", i, err)
		}
	}
	for i := 0; i < walTail; i++ {
		if err := s.d.Grow(blockSize); err != nil {
			return roundOut{}, fmt.Errorf("leaving a WAL tail: %w", err)
		}
	}
	table, err := s.d.NodeTable(0)
	if err != nil {
		return roundOut{}, err
	}
	var owned []int // pre-snapshot blocks the victim owns
	for b := 0; b < durKeys/blockSize; b++ {
		if int(table[b].Node) == victim {
			owned = append(owned, b)
		}
	}
	if len(owned) == 0 {
		return roundOut{}, errors.New("the victim owns no pre-snapshot block")
	}
	setup := time.Since(t0)
	if e.setupOnly {
		return roundOut{Setups: []float64{setup.Seconds()}}, nil
	}

	g := newOpGen(e.seed+group, 0, 1)
	var restartErr error
	l := e.newLoop("recover.restart")
	l.calls = e.cycles
	run := l.run(func() call {
		if restartErr != nil {
			return call{bad: 1}
		}
		s.nodes[victim].Close()
		start := time.Now()
		if restartErr = s.restart(); restartErr != nil {
			return call{bad: 1}
		}
		idx := owned[g.r.intn(len(owned))]*blockSize + g.r.intn(blockSize)
		v, err := s.d.Read(idx)
		c := call{self: time.Since(start)}
		if err != nil || v != e.expect(idx) {
			c.bad = 1
		} else {
			c.ok = 1
		}
		return c
	})
	if restartErr != nil {
		return roundOut{}, restartErr
	}
	out := finish(setup, run)
	e.sweep(&out, s.d, durKeys, 97)
	stats, err := s.d.Stats()
	ok := err == nil && len(stats) > victim && stats[victim].Recoveries > 0 && stats[victim].WALReplayed > 0
	out.check(ok, "victim stats after the last restart: %+v, err=%v", stats, err)
	if ok {
		out.Extra["wal_replayed"] = float64(stats[victim].WALReplayed)
	}
	s.observe(&out)
	return out, nil
}
