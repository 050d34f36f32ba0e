package comm

import (
	"net"
	"sync"
	"time"

	"rcuarray/internal/obs"
)

// The comm fast path: instead of one conn.Write (one syscall) per frame
// behind a per-connection send mutex, frames are appended to a writeQueue and
// flushed in batches. The queue uses a combining flusher: the first enqueuer
// becomes the flusher and drains the queue — including frames other callers
// append while it is inside conn.Write — with a single scatter/gather writev
// (net.Buffers) per batch. N concurrent callers therefore cost ~1 syscall,
// and no caller ever blocks behind another caller's stalled write: it
// enqueues, returns, and waits on its own response channel with its own
// deadline.
//
// The node's replies coalesce even from a single caller: the serve loop
// appends them with enqueueDeferred, which corks them — they sit in the queue
// until something flushes it (kick, an enqueue, or the corked bytes reaching
// corkHighWater) — so the replies to a burst of requests read in one go are
// one writev instead of one per frame. The client does not cork: every
// request is enqueued and so sent at once.
//
// Frame memory is pooled: callers encode into framePool buffers, held
// through generation-checked frame handles, that the flusher recycles once
// the batch is on the wire (or has failed). An entry may also carry a
// zero-copy tail — a payload slice referenced directly, never copied into
// the frame buffer; the node's replies above inlineReply bytes (large AM and
// GETV replies) use it.

// framePool recycles frame buffers across calls and connections.
var framePool = sync.Pool{
	New: func() any { return &frameBuf{b: make([]byte, 0, 512)} },
}

// maxPooledBuf bounds what returns to the pool: a rare huge frame (workload
// AMs, multi-megabyte PUTs) must not pin its allocation forever.
const maxPooledBuf = 1 << 18

// corkHighWater bounds how many corked bytes wait for a flush: the enqueue
// that reaches it flushes. It matches the peer's 64 KiB buffered reader, so a
// burst of any length streams its replies in reader-sized batches and the
// queue's memory stays bounded.
const corkHighWater = 64 << 10

// maxRetainedEntries bounds the capacity the queue's reusable slices (pend,
// spare, and the iovec scratch) keep between flushes. A burst may grow them
// past it; they are then dropped instead of retained for the life of the
// connection.
const maxRetainedEntries = 2048

// frameBuf is one pooled frame buffer. gen moves on at each release and
// each hand-off, so every handle minted before it is stale. Only the
// buffer's owner touches gen, and ownership moves with a happens-before edge
// (the write queue's mutex, the pool, a go statement), so plain fields
// suffice: a stale handle used while another party owns the buffer is also
// a data race that the race detector reports.
type frameBuf struct {
	b      []byte
	gen    uint32
	handed uint32 // the generation the last hand-off minted, for the panic message
}

// frameRef is a generation-checked handle to a pooled buffer, owned by one
// party at a time. handoff moves ownership to a new handle and release
// returns the buffer to the pool; either leaves the old handle stale, and
// any later read, write, hand-off or release through it panics naming the
// misuse, on the path that commits it. The zero frameRef owns nothing and
// releases as a no-op.
type frameRef struct {
	fb  *frameBuf
	gen uint32
}

func getFrame() frameRef {
	fb := framePool.Get().(*frameBuf)
	return frameRef{fb, fb.gen}
}

// bytes returns the frame's contents.
func (f frameRef) bytes() []byte {
	f.check("read")
	return f.fb.b
}

// set replaces the frame's contents (an append that may have grown it).
func (f frameRef) set(b []byte) {
	f.check("written")
	f.fb.b = b
}

// handoff moves ownership to the returned handle — an entry that releases
// it — and leaves f stale.
func (f frameRef) handoff() frameRef {
	f.check("handed off")
	f.fb.gen++
	f.fb.handed = f.fb.gen
	return frameRef{f.fb, f.fb.gen}
}

// release returns the buffer to the pool; a buffer grown past
// maxPooledBuf is dropped instead, so a rare huge frame does not pin its
// allocation forever.
func (f frameRef) release() {
	if f.fb == nil {
		return
	}
	f.check("released")
	f.fb.gen++
	if cap(f.fb.b) > maxPooledBuf {
		return
	}
	f.fb.b = f.fb.b[:0]
	framePool.Put(f.fb)
}

// check panics, naming the misuse, when f is stale.
func (f frameRef) check(op string) {
	if f.fb.gen != f.gen {
		f.stale(op)
	}
}

// stale panics for a misuse through a stale handle. It stays out of line so
// the checks that call it inline small.
//
//go:noinline
func (f frameRef) stale(op string) {
	after := "release"
	if f.fb.handed == f.gen+1 {
		after = "hand-off"
	}
	if op == "released" && after == "release" {
		panic("comm: pooled frame released twice")
	}
	panic("comm: pooled frame " + op + " after " + after)
}

// wqEntry is one frame awaiting flush.
type wqEntry struct {
	buf frameRef // frame bytes (length prefix + header [+ payload])
	// tail, when non-nil, is written immediately after buf without being
	// copied (zero-copy response payloads). The slice must stay valid until
	// the entry is released.
	tail []byte
	// deadline is when the caller gives up (zero = none). A batch arms the
	// earliest deadline of its frames as the connection write deadline.
	deadline time.Time
	// body, when set, is the request body an AM reply may alias: it is
	// released with the entry, once the reply is written or the write has
	// failed.
	body frameRef
}

// releaseEntry returns an entry's pooled buffers.
func releaseEntry(e *wqEntry) {
	e.buf.release()
	e.body.release()
	*e = wqEntry{}
}

// batchWriter is implemented by connections that apply their write-side
// behaviour per batch rather than per buffer — faultConn injects one seeded
// fault decision per flushed batch, so stalls, resets, and partial writes
// land at the flushed-batch boundary.
type batchWriter interface {
	writeBatch(bufs net.Buffers) (int64, error)
}

// writeQueue coalesces frame writes onto one connection. The zero value is
// not usable; use newWriteQueue. Both the client's request path and the
// node's response path run one of these per connection.
type writeQueue struct {
	conn net.Conn
	// frames/bytes, when non-nil, record the coalescing factor: frames per
	// flush and bytes per flush (observed only while obs is globally on).
	frames *obs.Histogram
	bytes  *obs.Histogram

	mu      sync.Mutex
	pend    []wqEntry // frames waiting for the flusher
	spare   []wqEntry // double buffer: the flusher's drained slice, reused
	scratch net.Buffers
	// corked counts the bytes appended by enqueueDeferred since the flusher
	// last took the queue.
	corked   int
	flushing bool  // a combining flusher is active
	err      error // sticky: the queue is severed
}

func newWriteQueue(conn net.Conn, frames, bytes *obs.Histogram) *writeQueue {
	return &writeQueue{conn: conn, frames: frames, bytes: bytes}
}

// enqueue appends one frame. If no flusher is active the caller becomes the
// flusher and drains the queue before returning; otherwise the active
// flusher picks the frame up in its next batch. The returned error is only
// the queue's sticky severed state — a write failure inside the flush is
// reported by severing the connection (the read side observes it and fails
// every in-flight request), not to the enqueuer that happened to be
// flushing.
func (q *writeQueue) enqueue(e wqEntry) error {
	q.mu.Lock()
	if q.err != nil {
		err := q.err
		q.mu.Unlock()
		releaseEntry(&e)
		return err
	}
	q.pend = append(q.pend, e)
	if q.flushing {
		q.mu.Unlock()
		return nil
	}
	q.flushing = true
	q.mu.Unlock()
	q.flushLoop()
	return nil
}

// enqueueDeferred appends a frame without starting a flush, unless the corked
// bytes have reached corkHighWater. The caller must guarantee a later kick()
// (or enqueue()) before it blocks on the frame's effect: the node's serve loop
// corks replies this way while more pipelined requests are already sitting in
// its read buffer, so a burst of N frames produces one writev instead of N
// single-frame flushes.
func (q *writeQueue) enqueueDeferred(e wqEntry) error {
	q.mu.Lock()
	if q.err != nil {
		err := q.err
		q.mu.Unlock()
		releaseEntry(&e)
		return err
	}
	q.pend = append(q.pend, e)
	q.corked += len(e.buf.bytes()) + len(e.tail)
	flush := q.corked >= corkHighWater && !q.flushing
	if flush {
		q.flushing = true
	}
	q.mu.Unlock()
	if flush {
		q.flushLoop()
	}
	return nil
}

// kick starts a flusher for deferred frames if none is active.
func (q *writeQueue) kick() {
	q.mu.Lock()
	if q.err != nil || q.flushing || len(q.pend) == 0 {
		q.mu.Unlock()
		return
	}
	q.flushing = true
	q.mu.Unlock()
	q.flushLoop()
}

// flushLoop drains the queue until it is empty, writing one batch per
// iteration. Runs in the enqueuer that found the queue idle.
func (q *writeQueue) flushLoop() {
	for {
		q.mu.Lock()
		if len(q.pend) == 0 {
			q.flushing = false
			q.mu.Unlock()
			return
		}
		batch := q.pend
		q.pend = q.spare[:0]
		q.spare = nil
		q.corked = 0
		q.mu.Unlock()

		err := q.writeBatch(batch)
		for i := range batch {
			releaseEntry(&batch[i])
		}

		q.mu.Lock()
		if cap(batch) <= maxRetainedEntries {
			q.spare = batch[:0]
		}
		if err != nil {
			// A failed or partial batch poisons the stream framing: sever
			// the connection so the owner redials. In-flight requests fail
			// via the reader side noticing the severed connection; frames
			// still queued will fail at their next enqueue-or-flush.
			q.err = err
			rest := q.pend
			q.pend = nil
			q.flushing = false
			q.mu.Unlock()
			q.conn.Close()
			for i := range rest {
				releaseEntry(&rest[i])
			}
			return
		}
		q.mu.Unlock()
	}
}

// writeBatch puts one batch on the wire: arm the earliest caller deadline as
// the write deadline (a failed deadline arm severs — a silently disarmed
// timeout would let a stalled peer pin the flusher forever), then a single
// scatter/gather write of every frame.
func (q *writeQueue) writeBatch(batch []wqEntry) error {
	var deadline time.Time
	for i := range batch {
		d := batch[i].deadline
		if !d.IsZero() && (deadline.IsZero() || d.Before(deadline)) {
			deadline = d
		}
	}
	if err := q.conn.SetWriteDeadline(deadline); err != nil {
		return err
	}

	bufs := q.scratch[:0]
	total := 0
	for i := range batch {
		b := batch[i].buf.bytes()
		bufs = append(bufs, b)
		total += len(b)
		if t := batch[i].tail; t != nil {
			bufs = append(bufs, t)
			total += len(t)
		}
	}
	if q.frames != nil && obs.On() {
		q.frames.Observe(int64(len(batch)))
		q.bytes.Observe(int64(total))
	}

	var err error
	if bw, ok := q.conn.(batchWriter); ok {
		_, err = bw.writeBatch(bufs)
	} else {
		_, err = writeBuffers(q.conn, bufs)
	}
	// The writers got a copy of the slice header and consume the elements in
	// place, so bufs still spans exactly the slots this batch filled: drop
	// those references so the pooled arrays are not pinned by stale slices.
	// Clearing the whole capacity instead would make every later single-frame
	// flush pay for the largest burst the connection ever saw.
	clear(bufs)
	if cap(bufs) <= maxRetainedEntries {
		q.scratch = bufs[:0]
	} else {
		q.scratch = nil
	}
	return err
}

// writeBuffers puts a batch on the wire: a single Write when one buffer is
// pending, writev for true batches, and annotated per-buffer Writes under the
// race detector (see race_on.go).
func writeBuffers(conn net.Conn, bufs net.Buffers) (int64, error) {
	if len(bufs) == 1 {
		n, err := conn.Write(bufs[0])
		return int64(n), err
	}
	if raceEnabled {
		var total int64
		for _, b := range bufs {
			n, err := conn.Write(b)
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
		return total, nil
	}
	return bufs.WriteTo(conn)
}

// sever marks the queue failed without writing (the owner noticed the
// connection die elsewhere). Queued entries are released.
func (q *writeQueue) sever(err error) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	rest := q.pend
	q.pend = nil
	q.mu.Unlock()
	for i := range rest {
		releaseEntry(&rest[i])
	}
}
