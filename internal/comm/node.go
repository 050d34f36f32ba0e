package comm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"rcuarray/internal/obs"
)

// AMHandler processes an active message and returns a reply (or an error,
// which is delivered to the caller as an error frame).
type AMHandler func(payload []byte) ([]byte, error)

// AMHandlerCtx is an AMHandler that also receives the request's trace
// context (zero for untraced peers), so node-side work can join the
// caller's trace.
type AMHandlerCtx func(payload []byte, tc TraceCtx) ([]byte, error)

// amEntry is one registered handler plus its span name (interned when the
// node has a registry; unused otherwise).
type amEntry struct {
	fn   AMHandlerCtx
	name obs.NameID
}

// NodeConfig tunes a node's connection handling.
type NodeConfig struct {
	// FrameTimeout bounds how long a started frame may take to finish
	// arriving: once the 4-byte length prefix has been read, the rest of
	// the frame must land within this window or the connection is dropped.
	// This is what keeps a half-open or stalled client from pinning a
	// handler goroutine forever. 0 means the 30s default; negative
	// disables the deadline.
	FrameTimeout time.Duration
	// IdleTimeout, when positive, also bounds the wait for the *next*
	// frame, dropping connections that go silent between requests. Off by
	// default: drivers legitimately idle between phases.
	IdleTimeout time.Duration
	// Obs, when set, counts inbound requests per op and fenced Put
	// rejections into the registry.
	Obs *obs.Registry
	// DeferServe binds the listener but does not accept connections until
	// Serve is called. Crash recovery uses this window to restore segments
	// and replay the WAL before any request can observe partial state, while
	// still claiming the node's address up front.
	DeferServe bool
}

// inlineReply is the largest response payload copied into the reply's pooled
// header buffer; anything larger rides as a zero-copy tail iovec.
const inlineReply = 64

// defaultFrameTimeout is generous: a legitimate peer streams a frame in
// microseconds; only a stalled or half-open connection takes longer.
const defaultFrameTimeout = 30 * time.Second

func (c NodeConfig) frameTimeout() time.Duration {
	if c.FrameTimeout == 0 {
		return defaultFrameTimeout
	}
	if c.FrameTimeout < 0 {
		return 0
	}
	return c.FrameTimeout
}

// Node is one endpoint of the TCP transport: it owns addressable memory
// segments (the remote side of GET/PUT) and a table of active-message
// handlers (the remote side of `on`-style execution). It serves any number
// of concurrent client connections, one goroutine per connection.
type Node struct {
	ln  net.Listener
	cfg NodeConfig

	segMu    sync.RWMutex
	segments map[uint64][]byte
	nextSeg  atomic.Uint64

	handlerMu sync.RWMutex
	handlers  map[uint16]amEntry

	// Write fencing: gens maps a client identity (from its hello frame) to
	// the highest connection generation seen. Puts from a lower generation —
	// a connection the client has since redialed past — are rejected, so a
	// write abandoned on a dead connection cannot clobber a write
	// acknowledged on its replacement. genMu is held across the generation
	// check *and* the segment write, making the pair atomic against a newer
	// generation registering. The map grows by one uint64 per client
	// identity over the node's lifetime (identities are per driver
	// connection slot, not per dial: redials reuse them).
	genMu sync.Mutex
	gens  map[uint64]uint64

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	wg        sync.WaitGroup
	serving   atomic.Bool
	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error

	// Served counts successfully handled requests, for tests.
	served atomic.Uint64

	obs *nodeObs // nil without NodeConfig.Obs
}

// NewNode starts a node listening on addr ("127.0.0.1:0" for an ephemeral
// test port) with default configuration.
func NewNode(addr string) (*Node, error) {
	return NewNodeConfig(addr, NodeConfig{})
}

// NewNodeConfig starts a node with explicit connection handling.
func NewNodeConfig(addr string, cfg NodeConfig) (*Node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("comm: listen: %w", err)
	}
	n := &Node{
		ln:       ln,
		cfg:      cfg,
		segments: make(map[uint64][]byte),
		handlers: make(map[uint16]amEntry),
		gens:     make(map[uint64]uint64),
		conns:    make(map[net.Conn]struct{}),
	}
	if cfg.Obs != nil {
		n.obs = newNodeObs(cfg.Obs)
	}
	if !cfg.DeferServe {
		n.Serve()
	}
	return n, nil
}

// Serve starts accepting connections. Without NodeConfig.DeferServe it has
// already been called by the constructor; extra calls are no-ops, as is a
// call after Close.
func (n *Node) Serve() {
	if n.closed.Load() || !n.serving.CompareAndSwap(false, true) {
		return
	}
	n.wg.Add(1)
	go n.acceptLoop()
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Served returns the number of requests handled successfully.
func (n *Node) Served() uint64 { return n.served.Load() }

// OpenConns returns the number of currently served connections (tests use
// this to assert that stalled clients are reaped).
func (n *Node) OpenConns() int {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	return len(n.conns)
}

// Close stops the listener, severs every open connection, and waits for
// connection goroutines to drain. It is idempotent: concurrent and repeated
// calls all observe the first call's result, so signal handlers and deferred
// cleanups can both close a node without tripping over each other.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		n.closed.Store(true)
		n.closeErr = n.ln.Close()
		n.connMu.Lock()
		for conn := range n.conns {
			conn.Close()
		}
		n.connMu.Unlock()
	})
	n.wg.Wait()
	return n.closeErr
}

// AllocSegment creates a memory segment of size bytes and returns its id.
func (n *Node) AllocSegment(size int) uint64 {
	id := n.nextSeg.Add(1)
	n.segMu.Lock()
	n.segments[id] = make([]byte, size)
	n.segMu.Unlock()
	return id
}

// RestoreSegment installs data as the segment with the given id, taking
// ownership of the slice. Crash recovery uses it to rebuild the segment table
// from a snapshot at the ids the region tables already reference; the
// allocation cursor advances past every restored id so post-recovery
// AllocSegment calls can never recycle one.
func (n *Node) RestoreSegment(id uint64, data []byte) {
	n.segMu.Lock()
	n.segments[id] = data
	n.segMu.Unlock()
	for {
		cur := n.nextSeg.Load()
		if cur >= id || n.nextSeg.CompareAndSwap(cur, id) {
			return
		}
	}
}

// SnapshotSegment copies a segment's contents under the exclusive segment
// lock. Remote Puts apply under the shared lock, so the copy is serialized
// against them: a snapshot observes each acknowledged write entirely or not
// at all, without stalling writers for longer than one segment's memcpy.
func (n *Node) SnapshotSegment(id uint64) ([]byte, error) {
	n.segMu.Lock()
	defer n.segMu.Unlock()
	seg, ok := n.segments[id]
	if !ok {
		return nil, fmt.Errorf("comm: snapshot of unknown segment %d", id)
	}
	out := make([]byte, len(seg))
	copy(out, seg)
	return out, nil
}

// FreeSegment releases a segment. Subsequent remote access fails, which is
// the distributed analogue of the poison-on-free discipline in
// internal/memory.
func (n *Node) FreeSegment(id uint64) error {
	n.segMu.Lock()
	defer n.segMu.Unlock()
	if _, ok := n.segments[id]; !ok {
		return fmt.Errorf("comm: free of unknown segment %d", id)
	}
	delete(n.segments, id)
	return nil
}

// Segment returns the live backing slice of a segment (no copy). The caller
// must not retain the slice past FreeSegment and must coordinate concurrent
// byte-level access itself, exactly as with any shared memory; an element
// that remote GETVs and PUTVs also reach is read and written through
// ReadElem and WriteElem instead.
func (n *Node) Segment(id uint64) ([]byte, error) {
	n.segMu.RLock()
	defer n.segMu.RUnlock()
	seg, ok := n.segments[id]
	if !ok {
		return nil, fmt.Errorf("comm: unknown segment %d", id)
	}
	return seg, nil
}

// ReadElem copies the len(dst) bytes at off in segment id into dst, and
// WriteElem stores data there. Each holds the segment-table read lock and
// copies like a one-element GETV or PUTV (see loadElem), so the owner's own
// element access does not tear against remote ones.
func (n *Node) ReadElem(id uint64, off int, dst []byte) error {
	n.segMu.RLock()
	defer n.segMu.RUnlock()
	w, err := n.vecWindow("read", id, uint64(off), len(dst))
	if err == nil {
		loadElem(dst[:0], w)
	}
	return err
}

// WriteElem is ReadElem's store: see ReadElem.
func (n *Node) WriteElem(id uint64, off int, data []byte) error {
	n.segMu.RLock()
	defer n.segMu.RUnlock()
	w, err := n.vecWindow("write", id, uint64(off), len(data))
	if err == nil {
		storeElem(w, data)
	}
	return err
}

// Handle registers fn for active messages with the given handler id.
func (n *Node) Handle(id uint16, fn AMHandler) {
	n.HandleCtx(id, fmt.Sprintf("handle.am_%d", id),
		func(payload []byte, _ TraceCtx) ([]byte, error) { return fn(payload) })
}

// HandleCtx registers a trace-aware handler under a human-readable span
// name: when a traced request invokes it, the node records a handler span
// named name carrying the request's span id, which the merged cluster trace
// links back to the client's RPC span.
func (n *Node) HandleCtx(id uint16, name string, fn AMHandlerCtx) {
	e := amEntry{fn: fn}
	if n.cfg.Obs != nil {
		e.name = n.cfg.Obs.Tracer().Name(name)
	}
	n.handlerMu.Lock()
	n.handlers[id] = e
	n.handlerMu.Unlock()
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			if n.closed.Load() {
				return
			}
			log.Printf("comm: accept: %v", err)
			return
		}
		n.connMu.Lock()
		if n.closed.Load() {
			n.connMu.Unlock()
			conn.Close()
			return
		}
		n.conns[conn] = struct{}{}
		n.connMu.Unlock()
		n.wg.Add(1)
		go n.serveConn(conn)
	}
}

func (n *Node) serveConn(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.connMu.Lock()
		delete(n.conns, conn)
		n.connMu.Unlock()
	}()
	// Responses ride a per-connection write queue mirroring the client's:
	// replies from the inline loop and from concurrent AM goroutines coalesce
	// into batched writev flushes. An AM reply above inlineReply bytes
	// travels as a zero-copy tail pointing at whatever the handler returned,
	// and so does a GETV reply that large, pointing at its own pooled buffer;
	// the only per-reply copy is then the 13-byte frame header. Smaller
	// payloads (a point read is one 8-byte element) are appended to that
	// header instead: copying a few bytes is cheaper than a second iovec per
	// reply.
	var frames, bytes *obs.Histogram
	if n.obs != nil {
		frames, bytes = n.obs.flushFrames, n.obs.flushBytes
	}
	wq := newWriteQueue(conn, frames, bytes)
	makeEntry := func(seq uint64, resp []byte, herr error, body frameRef) wqEntry {
		var typ byte
		if herr != nil {
			typ, resp = msgError, []byte(herr.Error())
		} else {
			typ = msgOK
			n.served.Add(1)
		}
		buf := getFrame()
		b := frameHeader(buf.bytes()[:0], typ, seq, len(resp))
		var tail []byte
		if len(resp) > inlineReply {
			tail = resp
		} else {
			b = append(b, resp...)
		}
		buf.set(b)
		return wqEntry{buf: buf.handoff(), tail: tail, body: body}
	}
	// answer sends a reply from an AM goroutine. enqueue guarantees the entry
	// is released exactly once even when the queue is already severed, so
	// the AM request body it carries never leaks.
	answer := func(seq uint64, resp []byte, herr error, body frameRef) {
		_ = wq.enqueue(makeEntry(seq, resp, herr, body))
	}
	// Active messages each run in their own goroutine so that long-running
	// or blocking handlers (remote lock acquisition, workload execution)
	// neither stall pipelined requests on this connection nor deadlock
	// against each other. Data-plane frames (GETV/PUTV) are instead handled
	// inline, in wire order: they are short and never block on other
	// requests, and in-order application is what keeps a stalled-then-
	// abandoned Put from clobbering a later acknowledged write issued on the
	// same connection.
	//
	// Request bodies are pooled. Inline frames (hello and the data plane)
	// are done with the body the moment the handler returns — a GETV reply
	// is a copy in its own pooled buffer, never an alias of the request — so
	// it recycles immediately, and a GETV's reply buffer rides the reply's
	// entry until it is flushed. An AM reply may alias its
	// request payload (echo-style handlers), so its body is handed to the
	// reply's entry and recycles only after the reply is flushed.
	// Requests arrive through a buffered reader, so a burst of pipelined
	// frames costs one read syscall, and inline replies are corked
	// (enqueueDeferred) while more complete input is already sitting in the
	// buffer: a burst of N frames turns into one writev of N replies instead
	// of N single-frame flushes. The cork is safe because the loop always
	// kicks the queue before blocking on the socket again — including on
	// exit, so deferred replies and their pooled buffers never leak.
	br := bufio.NewReaderSize(conn, 64<<10)
	defer wq.kick()
	var ring *obs.Ring // data-plane span ring, created only if ever traced
	var ident, gen uint64
	var reqs sync.WaitGroup
	defer reqs.Wait()
	for {
		typ, seq, payload, body, err := n.readFrameDeadlinePooled(conn, br)
		if err != nil {
			return // peer hung up, stalled past a deadline, or broke protocol
		}
		var tc TraceCtx
		if typ, tc, payload, err = splitTrace(typ, payload); err != nil {
			body.release()
			return // truncated trace header: broken protocol
		}
		n.obs.noteReq(typ)
		switch typ {
		case msgHello:
			i, g, herr := n.registerHello(payload)
			if herr == nil {
				ident, gen = i, g
			}
			body.release()
			_ = wq.enqueueDeferred(makeEntry(seq, nil, herr, frameRef{}))
		case msgGetV, msgPutV:
			t0 := n.obs.spanStart(tc)
			resp, reply, herr := n.dispatchData(typ, payload, ident, gen)
			ring = n.obs.dataSpan(ring, typ, t0, tc.SpanID)
			body.release()
			_ = wq.enqueueDeferred(makeEntry(seq, resp, herr, reply))
		default:
			reqs.Add(1)
			go func(typ byte, seq uint64, payload []byte, body frameRef, tc TraceCtx) {
				defer reqs.Done()
				resp, herr := n.dispatch(typ, payload, tc)
				answer(seq, resp, herr, body.handoff())
			}(typ, seq, payload, body.handoff(), tc)
		}
		if br.Buffered() < 4 {
			// Nothing more is ready in memory (4 bytes is the length prefix —
			// less than that cannot be a frame): flush the corked replies
			// before the next read blocks.
			wq.kick()
		}
	}
}

// registerHello records a client's write-fencing identity for this
// connection. A hello whose generation is below the identity's current one
// names a connection that has already been superseded; rejecting it makes
// the dial fail fast instead of producing a client whose every Put would be
// fenced.
func (n *Node) registerHello(payload []byte) (ident, gen uint64, err error) {
	if len(payload) != 16 {
		return 0, 0, fmt.Errorf("comm: hello payload length %d, want 16", len(payload))
	}
	ident = binary.BigEndian.Uint64(payload)
	gen = binary.BigEndian.Uint64(payload[8:])
	if ident == 0 {
		return 0, 0, errors.New("comm: hello with zero identity")
	}
	n.genMu.Lock()
	defer n.genMu.Unlock()
	if cur := n.gens[ident]; gen < cur {
		return 0, 0, fmt.Errorf("comm: hello with superseded generation %d (current %d)", gen, cur)
	}
	n.gens[ident] = gen
	return ident, gen, nil
}

// dispatchData serves one data-plane frame, a GETV or a PUTV. A PUTV from a
// fenced connection — one whose identity has registered a higher generation
// since — is rejected as a whole; the check and the write happen under one
// lock so a write can never land after one acknowledged on the successor
// connection. GETVs are idempotent and are not fenced: a stale read returns
// to a caller that already gave up on it.
//
// A GETV copies its elements into one pooled buffer, returned as reply for
// the reply's entry to release once it is flushed. An aligned 8-byte element
// is copied in either direction with one atomic word access, so it never
// tears against a concurrent write (see loadElem); other shapes may tear.
func (n *Node) dispatchData(typ byte, payload []byte, ident, gen uint64) (resp []byte, reply frameRef, err error) {
	v, err := decodeVec(typ, payload)
	if err != nil {
		return nil, frameRef{}, err
	}
	if typ == msgGetV {
		return n.getV(v)
	}
	return nil, frameRef{}, n.fenced(ident, gen, func() error { return n.putV(v) })
}

// fenced runs write unless the connection's generation (ident, gen) has been
// superseded, holding genMu across the check and the write.
func (n *Node) fenced(ident, gen uint64, write func() error) error {
	if ident != 0 {
		n.genMu.Lock()
		defer n.genMu.Unlock()
		if cur := n.gens[ident]; gen < cur {
			if n.obs != nil && obs.On() {
				n.obs.fenced.Inc()
			}
			return fmt.Errorf("comm: put from superseded connection generation %d (current %d)", gen, cur)
		}
	}
	return write()
}

// vecWindow returns the elemLen bytes at off in segment id, bounds-checked
// in uint64 so that no wire offset can wrap. The caller holds segMu
// read-locked.
func (n *Node) vecWindow(op string, id, off uint64, elemLen int) ([]byte, error) {
	seg, ok := n.segments[id]
	if !ok {
		return nil, fmt.Errorf("comm: %s of unknown segment %d", op, id)
	}
	if size := uint64(len(seg)); off > size || size-off < uint64(elemLen) {
		return nil, fmt.Errorf("comm: %s [%d,+%d) out of segment bounds %d", op, off, elemLen, len(seg))
	}
	return seg[off : off+uint64(elemLen)], nil
}

// getV copies a GETV's elements, in request order, into one pooled buffer
// under a single segment-table read lock. The buffer grows only by elements
// that exist, so a malformed frame cannot make it larger than the segments
// it names; on error it goes back to the pool.
func (n *Node) getV(v vecPayload) ([]byte, frameRef, error) {
	out := getFrame()
	b := out.bytes()[:0]
	n.segMu.RLock()
	for i := 0; i < v.count(); i++ {
		id, off, _ := v.at(i)
		w, err := n.vecWindow("read", id, off, v.elemLen)
		if err != nil {
			n.segMu.RUnlock()
			out.release()
			return nil, frameRef{}, err
		}
		b = loadElem(b, w)
	}
	n.segMu.RUnlock()
	out.set(b)
	return b, out.handoff(), nil
}

// putV applies a PUTV under a single segment-table read lock: every entry is
// checked before any is written, so a frame with one bad address writes
// nothing.
func (n *Node) putV(v vecPayload) error {
	n.segMu.RLock()
	defer n.segMu.RUnlock()
	for i := 0; i < v.count(); i++ {
		id, off, _ := v.at(i)
		if _, err := n.vecWindow("write", id, off, v.elemLen); err != nil {
			return err
		}
	}
	for i := 0; i < v.count(); i++ {
		id, off, data := v.at(i)
		w, _ := n.vecWindow("write", id, off, v.elemLen) // checked above
		storeElem(w, data)
	}
	return nil
}

// loadElem appends the element w to dst. An 8-byte element at an 8-aligned
// address — in an AllocSegment segment, every element at an 8-aligned
// offset — is read with one atomic 64-bit load, so it never tears against
// storeElem; any other shape is a plain copy and may tear. Both sides move the word in native byte order, so the bytes in
// memory, on the wire and in snapshots are the bytes the writer sent.
func loadElem(dst, w []byte) []byte {
	if p := word(w); p != nil {
		return binary.NativeEndian.AppendUint64(dst, p.Load())
	}
	return append(dst, w...)
}

// storeElem copies data into the element w, with one atomic 64-bit store
// where loadElem would use one load.
func storeElem(w, data []byte) {
	if p := word(w); p != nil {
		p.Store(binary.NativeEndian.Uint64(data))
		return
	}
	copy(w, data)
}

// word returns w as an atomic word when it is 8 bytes at an 8-aligned
// address, and nil otherwise.
func word(w []byte) *atomic.Uint64 {
	if len(w) != 8 || uintptr(unsafe.Pointer(unsafe.SliceData(w)))%8 != 0 {
		return nil
	}
	return (*atomic.Uint64)(unsafe.Pointer(unsafe.SliceData(w)))
}

// readFrameDeadlinePooled reads one frame with the node's per-connection read
// deadlines: the wait for a frame to *start* is bounded only by IdleTimeout
// (usually unbounded — idle drivers are fine), but once the length prefix
// arrives the remainder must land within FrameTimeout. A half-open peer that
// sends a partial frame and goes silent is therefore reaped instead of
// pinning this goroutine until process exit. A failed deadline arm severs the
// connection (by returning the error to serveConn): silently disarming the
// timeout would leave this goroutine exposed to exactly the unbounded stall
// the deadline exists to prevent.
//
// Frames arrive through a buffered reader — one read syscall can deliver many
// pipelined frames — while the deadlines are armed on the underlying conn (a
// deadline interrupts the buffered reader's underlying read), and the body
// lands in a pooled buffer (see readFrameBodyPooled for the recycle contract).
//
// A deadline exists to interrupt a stalled *socket* read; bytes already in
// the buffer cannot stall. So each arm is skipped when the buffer alone will
// satisfy the read — under pipelining that elides two timer updates per
// frame. Whenever a read may touch the socket, the deadline is (re)armed
// first, so a stale deadline from an earlier frame can never fire into a
// later one's read.
func (n *Node) readFrameDeadlinePooled(conn net.Conn, br *bufio.Reader) (typ byte, seq uint64, payload []byte, body frameRef, err error) {
	var lenBuf [4]byte
	if br.Buffered() < 4 {
		// The prefix read may block on the socket: bound the wait for the
		// next frame only by IdleTimeout.
		if n.cfg.IdleTimeout > 0 {
			err = conn.SetReadDeadline(time.Now().Add(n.cfg.IdleTimeout))
		} else {
			err = conn.SetReadDeadline(time.Time{})
		}
		if err != nil {
			return 0, 0, nil, frameRef{}, fmt.Errorf("comm: arm read deadline: %w", err)
		}
	}
	if _, err = io.ReadFull(br, lenBuf[:]); err != nil {
		return 0, 0, nil, frameRef{}, err
	}
	if total := binary.BigEndian.Uint32(lenBuf[:]); br.Buffered() < int(total) {
		if ft := n.cfg.frameTimeout(); ft > 0 {
			if err = conn.SetReadDeadline(time.Now().Add(ft)); err != nil {
				return 0, 0, nil, frameRef{}, fmt.Errorf("comm: arm read deadline: %w", err)
			}
		}
	}
	return readFrameBodyPooled(br, lenBuf)
}

// dispatch serves the message types that run concurrently (active messages);
// hello and the data plane are handled inline by serveConn. A traced AM
// records a handler span on the node's shared AM ring (concurrent handler
// goroutines write Complete events, which the ring tolerates), so every
// traced driver RPC gets a node-side counterpart regardless of how its
// handler was registered.
func (n *Node) dispatch(typ byte, payload []byte, tc TraceCtx) ([]byte, error) {
	switch typ {
	case msgAM:
		handler, data, err := decodeAM(payload)
		if err != nil {
			return nil, err
		}
		n.handlerMu.RLock()
		e, ok := n.handlers[handler]
		n.handlerMu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("comm: no handler %d", handler)
		}
		t0 := n.obs.spanStart(tc)
		resp, err := e.fn(data, tc)
		n.obs.amSpan(e.name, t0, tc.SpanID)
		return resp, err
	default:
		return nil, errors.New("comm: unknown message type")
	}
}
