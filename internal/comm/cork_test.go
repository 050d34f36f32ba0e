package comm

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
)

// The cork rule end to end: a caller's Start* window is one request writev
// and one reply writev, blocking calls flush the cork in wire order, the
// high-water mark bounds a long window, Close delivers corked-but-unsent
// Pendings their one result, and a burst's slices are not retained (nor
// re-cleared by every later flush).

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

// newCountingPair is newTestPair with both write queues on countingConns:
// reqs counts the client's request batches, replies the node's reply batches.
func newCountingPair(t *testing.T, cfg ClientConfig) (n *Node, c *Client, reqs, replies *countingConn) {
	t.Helper()
	n, err := NewNodeConfig("127.0.0.1:0", NodeConfig{DeferServe: true})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	t.Cleanup(func() { n.Close() })
	ln := &countingListener{Listener: n.ln, conns: make(chan *countingConn, 1)}
	n.ln = ln
	n.Serve()
	c, err = DialConfig(n.Addr(), cfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	// No request has been issued yet (cfg carries no Identity, so no hello):
	// swapping the queue's conn here races with nothing.
	reqs = &countingConn{Conn: c.conn}
	c.wq.conn = reqs
	return n, c, reqs, <-ln.conns
}

func TestCorkedWindowIsOneBatchEachWay(t *testing.T) {
	n, c, reqs, replies := newCountingPair(t, ClientConfig{CallTimeout: 5 * time.Second})
	const window = 32
	seg := n.AllocSegment(window * 8)
	for i := 0; i < window; i++ {
		var v [8]byte
		binary.BigEndian.PutUint64(v[:], uint64(i)+100)
		if err := n.LocalWrite(seg, i*8, v[:]); err != nil {
			t.Fatal(err)
		}
	}

	pend := make([]*Pending, window)
	for i := range pend {
		pend[i] = c.StartGet(seg, i*8, 8)
	}
	if got := reqs.batches.Load(); got != 0 {
		t.Fatalf("Start* flushed %d batches before any Wait", got)
	}
	for i, p := range pend {
		b, err := p.Wait()
		if err != nil {
			t.Fatalf("Wait %d: %v", i, err)
		}
		if v := binary.BigEndian.Uint64(b); v != uint64(i)+100 {
			t.Fatalf("GET %d = %d, want %d", i, v, i+100)
		}
	}
	if b, f := reqs.batches.Load(), reqs.frames.Load(); b != 1 || f != window {
		t.Fatalf("client sent %d batches of %d frames in total, want 1 batch of %d", b, f, window)
	}
	// Small replies ride inline in the header buffer: one iovec per reply.
	if f := replies.frames.Load(); f != window {
		t.Fatalf("node sent %d reply iovecs, want %d", f, window)
	}
	// One writev of 32 small frames reaches the node in one read on loopback,
	// so it answers with one batch. Under -race the flusher degrades to one
	// annotated Write per frame (race_on.go) and the node may see a trickle.
	if b := replies.batches.Load(); !raceEnabled && b != 1 {
		t.Fatalf("node answered in %d batches, want 1", b)
	}
}

func TestBlockingCallFlushesCorkInWireOrder(t *testing.T) {
	n, c, reqs, _ := newCountingPair(t, ClientConfig{CallTimeout: 5 * time.Second})
	seg := n.AllocSegment(8)
	one, two := []byte{0, 0, 0, 0, 0, 0, 0, 1}, []byte{0, 0, 0, 0, 0, 0, 0, 2}
	p1 := c.StartPut(seg, 0, one)
	p2 := c.StartPut(seg, 0, two)
	if got := reqs.batches.Load(); got != 0 {
		t.Fatalf("Start* flushed %d batches before any Wait", got)
	}
	// The node applies data-plane frames inline in wire order, so the GET
	// reads 2 only if the batch went out as PUT 1, PUT 2, GET.
	b, err := c.Get(seg, 0, 8)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if v := binary.BigEndian.Uint64(b); v != 2 {
		t.Fatalf("GET behind two corked PUTs read %d, want 2", v)
	}
	if b, f := reqs.batches.Load(), reqs.frames.Load(); b != 1 || f != 3 {
		t.Fatalf("blocking Get sent %d batches of %d frames in total, want 1 batch of 3", b, f)
	}
	for i, p := range []*Pending{p1, p2} {
		if _, err := p.Wait(); err != nil {
			t.Fatalf("Wait %d: %v", i, err)
		}
	}
	if b := reqs.batches.Load(); b != 1 {
		t.Fatalf("Waits on already-sent frames flushed again (%d batches)", b)
	}
}

func TestCorkHighWaterBoundsBatches(t *testing.T) {
	n, c, reqs, _ := newCountingPair(t, ClientConfig{CallTimeout: 30 * time.Second})
	const window = 16384
	seg := n.AllocSegment(8)
	pend := make([]*Pending, window)
	for i := range pend {
		pend[i] = c.StartGet(seg, 0, 8)
	}
	for i, p := range pend {
		if _, err := p.Wait(); err != nil {
			t.Fatalf("Wait %d: %v", i, err)
		}
	}
	frameLen := int64(len(appendRequestFrame(nil, msgGet, 1, frameSpec{})))
	// The enqueue that reaches the mark flushes, so a batch overshoots it by
	// less than one frame; everything below the mark waits for the first Wait.
	if max := reqs.maxBytes.Load(); max >= corkHighWater+frameLen {
		t.Fatalf("largest batch %d bytes, want < %d", max, corkHighWater+frameLen)
	}
	if b, want := reqs.batches.Load(), window*frameLen/corkHighWater; b < want || b > want+1 {
		t.Fatalf("%d-frame window went out in %d batches, want %d or %d", window, b, want, want+1)
	}
	if f := reqs.frames.Load(); f != window {
		t.Fatalf("sent %d frames, want %d", f, window)
	}
}

// A Start* whose frame is never flushed still gets exactly one result when
// the client closes, and its corked entry is released.
func TestCloseFailsCorkedPending(t *testing.T) {
	n, c, reqs, _ := newCountingPair(t, ClientConfig{})
	seg := n.AllocSegment(8)
	p := c.StartGet(seg, 0, 8)
	q := c.StartPut(seg, 0, make([]byte, 8))
	c.Close()
	for i, pd := range []*Pending{p, q} {
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
	if b := reqs.batches.Load(); b != 0 {
		t.Fatalf("Close flushed %d batches of corked frames", b)
	}
	c.wq.mu.Lock()
	left := len(c.wq.pend)
	c.wq.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d corked entries survive Close", left)
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
		if _, err := q.enqueueDeferred(okEntry(1, frameRef{}), 0); err != nil {
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
