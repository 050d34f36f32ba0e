package dist

import (
	"encoding/binary"
	"fmt"
	"sync"

	"rcuarray/internal/comm"
)

// Bulk element access: ReadMany/WriteMany group operations by owning node and
// send each node's share as comm's vectored frames (GETV/PUTV), so a
// (batch, node) pair costs one request frame and one reply frame (more only
// past vecChunk elements) instead of one frame, Pending and node dispatch per
// element. Every node's frames are sent before the first Wait, so the nodes
// serve their shares in parallel while one goroutine collects the replies. A
// send flushes inline and can block (a stalled connection, a full socket
// buffer), so every node but the last is sent from its own goroutine: the
// batch then waits for its slowest node, not for the sum of them. A
// frame that fails transiently falls back to the single-op retry envelope one
// element at a time (bounded retries, redial), so a lost connection costs
// retries for that frame's elements, not the whole batch. Grow's
// block-allocation fan-out rides the comm write queues too (driver.go).

// growAllocFanout bounds how many block allocations a Grow keeps in flight:
// enough to fill every node's write queue, small enough that an unreachable
// node fails the resize after one retry envelope, not hundreds.
const growAllocFanout = 32

// vecChunk caps the elements of one vectored frame. A PUTV of vecChunk
// elements is 24 KiB: far under comm's 16 MiB frame limit, and under the
// node's 64 KiB read buffer, so a large preload streams as a run of
// reader-sized frames.
const vecChunk = 1024

// bulkSpanElem is the child-span base of an element's fallback op, plus its
// position in the batch. A frame's span is node + chunk×nodes, below it, so
// every RPC of one batch has a distinct, replay-stable span id.
const bulkSpanElem = 1 << 30

// nodeGroup is one node's share of a batch, in batch order.
type nodeGroup struct {
	at  []comm.VecAddr // where each element lives on the node
	pos []int          // each element's position in the caller's idxs/vals
}

// groupByNode locates every index and buckets the ops by owning node, one
// group per node. The whole batch is located against one table snapshot,
// like a single locate.
func (d *Driver) groupByNode(idxs []int) ([]nodeGroup, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	limit := len(d.table) * d.blockSize
	counts := make([]int, len(d.addrs))
	for _, idx := range idxs {
		if idx < 0 || idx >= limit {
			return nil, fmt.Errorf("dist: index %d out of range [0,%d)", idx, limit)
		}
		counts[d.table[idx/d.blockSize].Node]++
	}
	// Two passes, so every group is a slice of one backing array.
	at := make([]comm.VecAddr, len(idxs))
	pos := make([]int, len(idxs))
	groups := make([]nodeGroup, len(d.addrs))
	lo := 0
	for node, n := range counts {
		groups[node] = nodeGroup{at: at[lo : lo : lo+n], pos: pos[lo : lo : lo+n]}
		lo += n
	}
	for p, idx := range idxs {
		ref := d.table[idx/d.blockSize]
		g := &groups[ref.Node]
		g.at = append(g.at, comm.VecAddr{Seg: ref.Seg, Off: uint64((idx % d.blockSize) * elemBytes)})
		g.pos = append(g.pos, p)
	}
	return groups, nil
}

// vecFrame is one vectored frame of a batch: elements [lo, hi) of a node's
// group.
type vecFrame struct {
	node, lo, hi int
	p            *comm.Pending // nil when the node had no usable connection
}

// startFunc issues one frame for the elements at, which sit at positions pos
// of the caller's slices. sendFrames may call it from several goroutines at
// once, one per node.
type startFunc func(c *comm.Client, at []comm.VecAddr, pos []int, tc comm.TraceCtx) *comm.Pending

// sendFrames starts every node's frames, vecChunk elements at most each,
// before any of them is waited for. A send can block — a stalled connection,
// a full socket buffer — so every node but the last is sent from its own
// goroutine, and the last from the caller's: a slow node delays only its own
// frames, and a batch waits for its slowest node, not for the sum of them.
func (d *Driver) sendFrames(groups []nodeGroup, tc comm.TraceCtx, start startFunc) []vecFrame {
	var frames []vecFrame
	for node, g := range groups {
		for lo := 0; lo < len(g.at); lo += vecChunk {
			frames = append(frames, vecFrame{node: node, lo: lo, hi: min(lo+vecChunk, len(g.at))})
		}
	}
	var wg sync.WaitGroup
	for lo := 0; lo < len(frames); {
		hi := lo + 1
		for hi < len(frames) && frames[hi].node == frames[lo].node {
			hi++
		}
		if hi == len(frames) {
			d.sendNode(groups, frames[lo:hi], tc, start)
		} else {
			wg.Add(1)
			go func(fs []vecFrame) {
				defer wg.Done()
				d.sendNode(groups, fs, tc, start)
			}(frames[lo:hi])
		}
		lo = hi
	}
	wg.Wait()
	return frames
}

// sendNode starts one node's frames, in order, on one connection.
func (d *Driver) sendNode(groups []nodeGroup, fs []vecFrame, tc comm.TraceCtx, start startFunc) {
	node := fs[0].node
	c := d.batchClient(node)
	if c == nil {
		return
	}
	g := groups[node]
	for chunk := range fs {
		f := &fs[chunk]
		f.p = start(c, g.at[f.lo:f.hi], g.pos[f.lo:f.hi], childCtx(tc, node+chunk*len(groups)))
	}
}

// wait collects a frame's reply. A frame that was never sent fails
// transiently, so its elements take the single-op envelope, which redials.
func (f vecFrame) wait() ([]byte, error) {
	if f.p == nil {
		return nil, fmt.Errorf("dist: node %d unreachable", f.node)
	}
	return f.p.Wait()
}

// batchClient fetches a node's connection for a batch's frames, redialing a
// broken one. A dial failure is not fatal: the caller falls back to per-op
// envelopes, which carry their own redial-and-retry budget.
func (d *Driver) batchClient(node int) *comm.Client {
	c := d.client(node)
	if c == nil {
		return nil
	}
	if c.Broken() {
		if fresh, err := d.redial(node, c); err == nil {
			return fresh
		}
		return nil
	}
	return c
}

// ReadMany fetches the elements at idxs, in order.
func (d *Driver) ReadMany(idxs []int) ([]int64, error) {
	groups, err := d.groupByNode(idxs)
	if err != nil {
		return nil, err
	}
	tc := d.newTraceCtx()
	frames := d.sendFrames(groups, tc, func(c *comm.Client, at []comm.VecAddr, _ []int, tc comm.TraceCtx) *comm.Pending {
		return c.StartGetV(elemBytes, at, tc)
	})
	out := make([]int64, len(idxs))
	for _, f := range frames {
		g := groups[f.node]
		b, err := f.wait()
		if err == nil {
			if len(b) != (f.hi-f.lo)*elemBytes {
				return nil, fmt.Errorf("dist: %d-element read returned %d bytes", f.hi-f.lo, len(b))
			}
			for i := f.lo; i < f.hi; i++ {
				out[g.pos[i]] = int64(binary.BigEndian.Uint64(b[(i-f.lo)*elemBytes:]))
			}
			continue
		}
		if !comm.IsTransient(err) {
			return nil, err
		}
		for i := f.lo; i < f.hi; i++ {
			d.o.noteTransient()
			v, err := d.retryGet(f.node, g.at[i], childCtx(tc, bulkSpanElem+g.pos[i]))
			if err != nil {
				return nil, err
			}
			out[g.pos[i]] = v
		}
	}
	return out, nil
}

// WriteMany stores vals[i] at idxs[i] for every i. A nil return acknowledges
// every write as durable on its owning node.
func (d *Driver) WriteMany(idxs []int, vals []int64) error {
	if len(idxs) != len(vals) {
		return fmt.Errorf("dist: WriteMany with %d indexes, %d values", len(idxs), len(vals))
	}
	groups, err := d.groupByNode(idxs)
	if err != nil {
		return err
	}
	tc := d.newTraceCtx()
	frames := d.sendFrames(groups, tc, func(c *comm.Client, at []comm.VecAddr, pos []int, tc comm.TraceCtx) *comm.Pending {
		data := make([]byte, len(pos)*elemBytes)
		for i, p := range pos {
			binary.BigEndian.PutUint64(data[i*elemBytes:], uint64(vals[p]))
		}
		return c.StartPutV(elemBytes, at, data, tc)
	})
	for _, f := range frames {
		_, err := f.wait()
		if err == nil {
			continue
		}
		if !comm.IsTransient(err) {
			return err
		}
		g := groups[f.node]
		for i := f.lo; i < f.hi; i++ {
			d.o.noteTransient()
			if err := d.retryPut(f.node, g.at[i], vals[g.pos[i]], childCtx(tc, bulkSpanElem+g.pos[i])); err != nil {
				return err
			}
		}
	}
	return nil
}

// retryGet re-runs one element of a failed GETV under the single-op
// envelope.
func (d *Driver) retryGet(node int, at comm.VecAddr, tc comm.TraceCtx) (int64, error) {
	var b []byte
	err := d.elemOp(node, func(c *comm.Client) (err error) {
		b, err = c.GetCtx(at.Seg, int(at.Off), elemBytes, tc)
		return err
	})
	if err != nil {
		return 0, err
	}
	if len(b) != elemBytes {
		return 0, fmt.Errorf("dist: element read returned %d bytes", len(b))
	}
	return int64(binary.BigEndian.Uint64(b)), nil
}

// retryPut re-runs one element of a failed PUTV under the single-op envelope.
// Safe for the same reason single-op Write retries are: the rewrite carries
// the same value, and cross-connection ordering is fenced by generation.
func (d *Driver) retryPut(node int, at comm.VecAddr, v int64, tc comm.TraceCtx) error {
	var buf [elemBytes]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v))
	return d.elemOp(node, func(c *comm.Client) error {
		return c.PutCtx(at.Seg, int(at.Off), buf[:], tc)
	})
}
