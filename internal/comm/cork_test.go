package comm

import (
	"bufio"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// The node's reply cork and the queue's ownership rules end to end: the
// high-water mark bounds the replies to a long burst, Close delivers frames
// queued behind a stalled flush their Pendings' one result, and a burst's
// slices are not retained (nor re-cleared by every later flush).

// countingListener wraps every accepted connection in a countingConn and
// hands it to the test, so the node's reply batches can be counted.
type countingListener struct {
	net.Listener
	conns chan *countingConn // buffered for the one connection a test dials
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: conn}
	l.conns <- cc
	return cc, nil
}

// The node corks its replies while more requests sit in its read buffer, and
// the reply that brings the corked bytes to corkHighWater flushes: a burst
// of 16384 requests written at once is answered in batches that overshoot
// the mark by less than one reply.
func TestCorkHighWaterBoundsBatches(t *testing.T) {
	n, err := NewNodeConfig("127.0.0.1:0", NodeConfig{DeferServe: true})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	t.Cleanup(func() { n.Close() })
	ln := &countingListener{Listener: n.ln, conns: make(chan *countingConn, 1)}
	n.ln = ln
	n.Serve()
	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	replies := <-ln.conns

	const window, elemLen = 16384, 64 // a 64-byte reply rides inline: one iovec
	seg := n.AllocSegment(elemLen)
	var stream []byte
	for i := 0; i < window; i++ {
		stream = append(stream, appendRequestFrame(nil, msgGetV, uint64(i), frameSpec{length: elemLen, vec: []VecAddr{{seg, 0}}})...)
	}
	sent := make(chan error, 1)
	go func() {
		_, err := conn.Write(stream)
		sent <- err
	}()
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	r := bufio.NewReader(conn)
	for i := 0; i < window; i++ {
		typ, seq, payload, err := readFrame(r)
		if err != nil || typ != msgOK || seq != uint64(i) || len(payload) != elemLen {
			t.Fatalf("reply %d: %#x seq %d, %d bytes, %v", i, typ, seq, len(payload), err)
		}
	}
	if err := <-sent; err != nil {
		t.Fatalf("write: %v", err)
	}
	replyLen := int64(len(frameHeader(nil, msgOK, 0, elemLen))) + elemLen
	if max := replies.maxBytes.Load(); max >= corkHighWater+replyLen {
		t.Fatalf("largest reply batch %d bytes, want < %d", max, corkHighWater+replyLen)
	}
	if f, b := replies.frames.Load(), replies.batches.Load(); f != window || b >= window {
		t.Fatalf("node sent %d replies in %d batches, want %d in fewer batches", f, b, window)
	}
}

// Frames queued behind a flush that never completes still get exactly one
// result each when the client closes, and their entries are released.
func TestCloseFailsQueuedPending(t *testing.T) {
	n, c := newTestPair(t)
	seg := n.AllocSegment(8)
	// No request has been issued yet (Dial sent no hello): swapping the
	// queue's conn here races with nothing.
	gc := &gateConn{Conn: c.conn, gate: make(chan struct{}), entered: make(chan struct{})}
	c.wq.conn = gc
	openGate := sync.OnceFunc(func() { close(gc.gate) })
	t.Cleanup(openGate)
	first := make(chan *Pending, 1)
	go func() { first <- c.StartGet(seg, 0, 8) }() // becomes the flusher and blocks at the gate
	<-gc.entered
	queued := []*Pending{c.StartGet(seg, 0, 8), c.StartPutV(8, []VecAddr{{seg, 0}}, make([]byte, 8), TraceCtx{})}
	c.Close()
	c.wq.mu.Lock()
	left := len(c.wq.pend)
	c.wq.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d queued entries survive Close", left)
	}
	openGate()
	for i, pd := range append(queued, <-first) {
		if got := len(pd.ch); got != 1 {
			t.Fatalf("pending %d holds %d results after Close, want exactly 1", i, got)
		}
		if _, err := pd.Wait(); err == nil || !IsTransient(err) {
			t.Fatalf("pending %d after Close: err = %v, want a transient error", i, err)
		}
		if got := len(pd.ch); got != 0 {
			t.Fatalf("pending %d received a second result", i)
		}
	}
	if late := c.StartGet(seg, 0, 8); len(late.ch) != 1 {
		t.Fatal("Start* on a closed client did not fail at once")
	}
}

// gateConn blocks its first Write until the gate closes, pinning a flusher
// inside the connection so a test can pile frames up behind it.
type gateConn struct {
	net.Conn
	gate    chan struct{}
	entered chan struct{} // closed when the first Write arrives
	first   bool
}

func (g *gateConn) Write(p []byte) (int, error) {
	if !g.first {
		g.first = true
		close(g.entered)
		<-g.gate
	}
	return g.Conn.Write(p)
}

// burstQueue pins a flusher, queues `burst` corked frames behind it, releases
// the flusher, and returns once the burst has drained as a single batch.
func burstQueue(t *testing.T, burst int) (*writeQueue, *countingConn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	go io.Copy(io.Discard, b)
	gc := &gateConn{Conn: a, gate: make(chan struct{}), entered: make(chan struct{})}
	cc := &countingConn{Conn: gc}
	q := newWriteQueue(cc, nil, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = q.enqueue(okEntry(1, frameRef{})) // becomes the flusher and blocks at the gate
	}()
	<-gc.entered
	for i := 0; i < burst; i++ {
		// A flusher is active, so even past the high-water mark these only
		// queue: the pinned flusher takes them all in its next batch.
		if err := q.enqueueDeferred(okEntry(1, frameRef{})); err != nil {
			t.Fatalf("enqueueDeferred: %v", err)
		}
	}
	close(gc.gate)
	<-done
	if got := cc.maxFrames.Load(); got != int64(burst) {
		t.Fatalf("burst drained in a largest batch of %d frames, want %d", got, burst)
	}
	return q, cc
}

func TestBurstSlicesNotRetained(t *testing.T) {
	q, cc := burstQueue(t, 10000)
	check := func(when string) {
		t.Helper()
		q.mu.Lock()
		defer q.mu.Unlock()
		if cap(q.pend) > maxRetainedEntries || cap(q.spare) > maxRetainedEntries || cap(q.scratch) > maxRetainedEntries {
			t.Fatalf("%s: cap(pend)=%d cap(spare)=%d cap(scratch)=%d, bound %d entries",
				when, cap(q.pend), cap(q.spare), cap(q.scratch), maxRetainedEntries)
		}
	}
	check("after the burst")
	before := cc.frames.Load()
	if err := q.enqueue(okEntry(2, frameRef{})); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	if got := cc.frames.Load() - before; got != 1 {
		t.Fatalf("single-frame flush wrote %d iovecs, want 1", got)
	}
	check("after the next flush")
}

// A flush clears the iovec slots it filled and no others: a sentinel parked
// in the retained scratch beyond slot 0 survives a single-frame flush. (The
// parent cleared the whole capacity on every flush — ~5 µs per round trip
// once a set-up burst had grown the array to thousands of slots.)
func TestFlushClearsOnlyFilledIovecs(t *testing.T) {
	const burst = maxRetainedEntries / 2 // small enough to be retained
	q, _ := burstQueue(t, burst)
	if cap(q.scratch) < burst {
		t.Fatalf("scratch of a %d-frame burst not retained (cap %d)", burst, cap(q.scratch))
	}
	full := q.scratch[:cap(q.scratch)]
	for i, b := range full {
		if b != nil {
			t.Fatalf("slot %d still references a flushed buffer", i)
		}
	}
	sentinel := []byte("sentinel")
	full[burst/2] = sentinel
	if err := q.enqueue(okEntry(2, frameRef{})); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	full = q.scratch[:cap(q.scratch)]
	if full[0] != nil {
		t.Fatal("the filled slot was not cleared")
	}
	if string(full[burst/2]) != string(sentinel) {
		t.Fatal("a single-frame flush cleared slots it never filled")
	}
}
