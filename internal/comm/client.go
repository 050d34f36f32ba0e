package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rcuarray/internal/obs"
)

// ClientConfig tunes one client connection. The zero value preserves the
// original behaviour: blocking dial, no call deadline, no faults.
type ClientConfig struct {
	// DialTimeout bounds connection establishment (0 = OS default).
	DialTimeout time.Duration
	// CallTimeout is the default per-call deadline for Get/Put/AM
	// (0 = wait forever). CallAM overrides it per call.
	CallTimeout time.Duration
	// Faults, when set, injects seeded write faults into this connection;
	// FaultKey names the decision stream (the dist driver uses the node
	// index, so a redialed connection resumes the same stream).
	Faults   *Injector
	FaultKey uint64
	// Part, when set, is the partition switch this connection obeys.
	Part *Partition
	// Identity and Generation, when Identity is nonzero, register this
	// connection for write fencing: Dial sends a hello frame and the node
	// thereafter rejects Puts from any connection whose generation is below
	// the highest it has seen for the identity. Owners bump Generation on
	// every redial, so a Put abandoned on a superseded connection cannot
	// land after writes acknowledged on its replacement.
	Identity   uint64
	Generation uint64
	// Obs, when set, records per-(op,peer) call latency histograms and
	// timeout/error counters into the registry, labeled with Peer. Calls
	// pay one branch when observability is globally off.
	Obs  *obs.Registry
	Peer string
	// TraceTrack is the tid of this client's RPC-span ring (pid
	// ClientTracePid) when Obs is set; the dist driver uses the node index
	// so each peer gets its own track in the merged cluster trace.
	TraceTrack int
}

// Client is one endpoint's view of a remote Node. Requests may be issued
// from any number of goroutines; they are pipelined on a single connection
// and matched to responses by sequence number. Concurrent requests coalesce:
// frames are appended to a per-connection write queue whose combining
// flusher puts N pending frames on the wire with one scatter/gather writev,
// so callers never serialize behind each other's syscalls. Every request is
// sent at once; a single caller batches by putting many elements in one
// StartGetV/StartPutV frame, and a point Get or Put is the one-element frame.
type Client struct {
	conn net.Conn
	cfg  ClientConfig
	obs  *clientObs // nil without ClientConfig.Obs

	wq *writeQueue

	nextSeq atomic.Uint64

	pendingMu sync.Mutex
	pending   map[uint64]chan result
	closed    bool
	closeErr  error

	closeOnce sync.Once
	closeRes  error

	readerDone chan struct{}
}

type result struct {
	payload []byte
	err     error
}

// timerPool recycles deadline timers across calls: a per-call
// time.NewTimer/Stop pair costs two allocations and a runtime timer
// install on every request. Timers in the pool are stopped with their
// channel drained, so Reset is always safe.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	t, _ := timerPool.Get().(*time.Timer)
	if t == nil {
		return time.NewTimer(d)
	}
	t.Reset(d)
	return t
}

func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// Dial connects to a node with default configuration.
func Dial(addr string) (*Client, error) {
	return DialConfig(addr, ClientConfig{})
}

// DialConfig connects to a node.
func DialConfig(addr string, cfg ClientConfig) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, cfg.DialTimeout)
	if err != nil {
		return nil, &netError{msg: fmt.Sprintf("comm: dial %s: %v", addr, err), wrapped: err}
	}
	if cfg.Faults != nil || cfg.Part != nil {
		conn = &faultConn{Conn: conn, inj: cfg.Faults, key: cfg.FaultKey, part: cfg.Part}
	}
	c := &Client{
		conn:       conn,
		cfg:        cfg,
		pending:    make(map[uint64]chan result),
		readerDone: make(chan struct{}),
	}
	if cfg.Obs != nil {
		c.obs = newClientObs(cfg.Obs, cfg.Peer, cfg.TraceTrack)
	}
	var frames, bytes *obs.Histogram
	if c.obs != nil {
		frames, bytes = c.obs.flushFrames, c.obs.flushBytes
	}
	c.wq = newWriteQueue(conn, frames, bytes)
	go c.readLoop()
	if cfg.Identity != 0 {
		// Register for write fencing before the caller can issue any
		// operation: the node must know this generation before it sees the
		// first Put, or fencing could not order the two connections.
		var p [16]byte
		binary.BigEndian.PutUint64(p[:8], cfg.Identity)
		binary.BigEndian.PutUint64(p[8:], cfg.Generation)
		timeout := cfg.CallTimeout
		if timeout == 0 {
			timeout = cfg.DialTimeout
		}
		if _, err := c.start(msgHello, frameSpec{data: p[:]}, timeout).wait(); err != nil {
			c.Close()
			return nil, fmt.Errorf("comm: hello %s: %w", addr, err)
		}
	}
	return c, nil
}

// Close tears the connection down; in-flight requests fail, including
// Start*ed ones whose frames were still queued behind a flush: the read
// loop's failAll delivers each registered Pending its one result and severs
// the write queue, which releases the unsent frames. Close is idempotent:
// every call returns the first call's result.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		c.closeRes = c.conn.Close()
		<-c.readerDone
	})
	return c.closeRes
}

// Broken reports whether the connection has failed (the read loop exited);
// every future call on a broken client fails fast, so the owner should
// redial.
func (c *Client) Broken() bool {
	c.pendingMu.Lock()
	defer c.pendingMu.Unlock()
	return c.closed
}

func (c *Client) readLoop() {
	defer close(c.readerDone)
	// Pipelined responses arrive back-to-back: a buffered reader turns a
	// burst of replies into one read syscall.
	r := bufio.NewReaderSize(c.conn, 64<<10)
	for {
		typ, seq, payload, err := readFrame(r)
		if err != nil {
			c.failAll(&netError{msg: fmt.Sprintf("comm: connection lost: %v", err), wrapped: err})
			return
		}
		ch, ok := c.takePending(seq)
		if !ok {
			continue // response to a request we gave up on
		}
		switch typ {
		case msgOK:
			ch <- result{payload: payload}
		case msgError:
			ch <- result{err: &RemoteError{Msg: string(payload)}}
		default:
			ch <- result{err: fmt.Errorf("comm: unexpected response type %#x", typ)}
		}
	}
}

// takePending removes and returns the response channel for seq. Exactly one
// taker wins: whoever takes the entry owns delivering (or abandoning) the
// result.
func (c *Client) takePending(seq uint64) (chan result, bool) {
	c.pendingMu.Lock()
	ch, ok := c.pending[seq]
	delete(c.pending, seq)
	c.pendingMu.Unlock()
	return ch, ok
}

func (c *Client) failAll(err error) {
	c.pendingMu.Lock()
	for seq, ch := range c.pending {
		delete(c.pending, seq)
		ch <- result{err: err}
	}
	c.closed = true
	c.closeErr = err
	c.pendingMu.Unlock()
	c.wq.sever(err)
}

// Pending is one in-flight pipelined request issued by a Start* call.
// Wait must be called exactly once; Pendings are not reusable.
//
// Delivery rule: a Start* call hands its frame to the write queue at once, so
// it is on the wire when Start* returns or joins the flush already in
// progress; no Wait is needed to send it. Whatever happens to the connection
// — including Close before that flush — every Pending receives exactly one
// result.
type Pending struct {
	c        *Client
	seq      uint64
	ch       chan result
	deadline time.Time // zero = wait forever
	typ      byte
	started  obs.Stamp // zero when the call is unobserved
	spanID   uint64    // trace span carried by the request (0 = untraced)
}

// start registers a request, encodes its frame, and hands it to the write
// queue. The returned Pending's channel is guaranteed to eventually receive
// exactly one result: from the read loop, from failAll when the connection
// dies, or directly here when the request cannot be sent at all.
func (c *Client) start(typ byte, s frameSpec, timeout time.Duration) *Pending {
	seq := c.nextSeq.Add(1)
	ch := make(chan result, 1)
	p := &Pending{c: c, seq: seq, ch: ch, typ: typ, spanID: s.tc.SpanID}
	if timeout > 0 {
		p.deadline = time.Now().Add(timeout)
	}
	if c.obs != nil {
		p.started = obs.Start()
	}

	c.pendingMu.Lock()
	if c.closed {
		err := c.closeErr
		c.pendingMu.Unlock()
		ch <- result{err: err}
		return p
	}
	c.pending[seq] = ch
	c.pendingMu.Unlock()

	buf := getFrame()
	buf.set(appendRequestFrame(buf.bytes()[:0], typ, seq, s))
	if err := c.wq.enqueue(wqEntry{buf: buf.handoff(), deadline: p.deadline}); err != nil {
		// The queue was already severed; fail this request now (unless the
		// read loop beat us to it).
		if _, ok := c.takePending(seq); ok {
			ch <- result{err: &netError{msg: fmt.Sprintf("comm: send: %v", err), wrapped: err}}
		}
	}
	return p
}

// wait blocks until the response arrives or the request's deadline passes.
// A result already delivered — the usual case for all but the first Wait of a
// window — returns without arming a timer.
func (p *Pending) wait() ([]byte, error) {
	select {
	case r := <-p.ch:
		return r.payload, r.err
	default:
	}
	var deadline <-chan time.Time
	var timer *time.Timer
	if !p.deadline.IsZero() {
		timer = getTimer(time.Until(p.deadline))
		defer putTimer(timer)
		deadline = timer.C
	}
	select {
	case r := <-p.ch:
		return r.payload, r.err
	case <-deadline:
		// Abandon the request: if we win the race for the pending entry, the
		// read loop will find nothing and drop the late response. If the
		// read loop won, the result is already in (or moments from) the
		// channel.
		if _, ok := p.c.takePending(p.seq); ok {
			return nil, ErrTimeout
		}
		r := <-p.ch
		return r.payload, r.err
	}
}

// Wait collects the response of a pipelined request, recording per-(op,peer)
// latency when observability is wired and on. Call exactly once.
func (p *Pending) Wait() ([]byte, error) {
	resp, err := p.wait()
	if p.started != 0 {
		p.c.obs.record(p.typ, p.started, err, p.spanID)
	}
	return resp, err
}

// call issues one request and waits for its response until timeout elapses
// (0 = wait forever), recording per-(op,peer) latency when observability is
// wired and on: one Stamp, taken by start, times the whole call.
func (c *Client) call(typ byte, s frameSpec, timeout time.Duration) ([]byte, error) {
	return c.start(typ, s, timeout).Wait()
}

// Get reads length bytes at offset from the remote segment: a one-element
// GETV, so length must be positive.
func (c *Client) Get(segment uint64, offset, length int) ([]byte, error) {
	return c.GetCtx(segment, offset, length, TraceCtx{})
}

// Put writes data at offset into the remote segment: a one-element PUTV, so
// data must not be empty.
func (c *Client) Put(segment uint64, offset int, data []byte) error {
	return c.PutCtx(segment, offset, data, TraceCtx{})
}

// AM invokes the remote active-message handler and returns its reply.
func (c *Client) AM(handler uint16, payload []byte) ([]byte, error) {
	return c.call(msgAM, frameSpec{handler: handler, data: payload}, c.cfg.CallTimeout)
}

// CallAM invokes an active message with an explicit deadline, overriding the
// configured CallTimeout (0 = wait forever — used for long-running
// workloads that must outlive the control-plane deadline).
func (c *Client) CallAM(handler uint16, payload []byte, timeout time.Duration) ([]byte, error) {
	return c.call(msgAM, frameSpec{handler: handler, data: payload}, timeout)
}

// StartGet issues Get without waiting: a one-element StartGetV, sent at once.
func (c *Client) StartGet(segment uint64, offset, length int) *Pending {
	return c.StartGetV(length, []VecAddr{{segment, uint64(offset)}}, TraceCtx{})
}

// Ctx variants carry a trace context on the wire (an extra 16-byte header
// when tc is nonzero; byte-identical frames when it is zero, so callers can
// pass a zero context unconditionally). The span id names the CLIENT side
// of the RPC: the client records an 'X' span under it at completion, the
// node records its handler span under the same id, and the merged cluster
// trace links the two with a flow arrow.

// GetCtx is Get carrying a trace context.
func (c *Client) GetCtx(segment uint64, offset, length int, tc TraceCtx) ([]byte, error) {
	return c.call(msgGetV, frameSpec{length: uint32(length), vec: []VecAddr{{segment, uint64(offset)}}, tc: tc}, c.cfg.CallTimeout)
}

// PutCtx is Put carrying a trace context.
func (c *Client) PutCtx(segment uint64, offset int, data []byte, tc TraceCtx) error {
	_, err := c.call(msgPutV, frameSpec{length: uint32(len(data)), vec: []VecAddr{{segment, uint64(offset)}}, data: data, tc: tc}, c.cfg.CallTimeout)
	return err
}

// CallAMCtx is CallAM carrying a trace context.
func (c *Client) CallAMCtx(handler uint16, payload []byte, timeout time.Duration, tc TraceCtx) ([]byte, error) {
	return c.call(msgAM, frameSpec{handler: handler, data: payload, tc: tc}, timeout)
}

// StartGetV issues one GETV without waiting: Wait returns the elemLen-byte
// elements at at, concatenated in order. The frame goes out at once, or joins
// the flush already in progress, so a caller that starts one frame per node
// has every node working before its first Wait. The frame must stay under the
// node's frame limit (16 MiB, the reply included): callers chunk large
// batches.
func (c *Client) StartGetV(elemLen int, at []VecAddr, tc TraceCtx) *Pending {
	return c.start(msgGetV, frameSpec{length: uint32(elemLen), vec: at, tc: tc}, c.cfg.CallTimeout)
}

// StartPutV issues one PUTV without waiting: data holds len(at)
// elements of elemLen bytes, the i-th stored at at[i]. The node applies the
// frame whole or not at all. It is sent like StartGetV, and data is copied
// into the frame before StartPutV returns.
func (c *Client) StartPutV(elemLen int, at []VecAddr, data []byte, tc TraceCtx) *Pending {
	if len(data) != len(at)*elemLen {
		panic(fmt.Sprintf("comm: StartPutV with %d data bytes for %d elements of %d", len(data), len(at), elemLen))
	}
	return c.start(msgPutV, frameSpec{length: uint32(elemLen), vec: at, data: data, tc: tc}, c.cfg.CallTimeout)
}
