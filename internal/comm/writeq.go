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
// A single caller coalesces too: frames appended with enqueueDeferred are
// corked — they sit in the queue until something flushes it (kick, a
// blocking caller's enqueue, or the corked bytes reaching corkHighWater), so
// a caller's pipelined Start* window and the node's replies to it are one
// writev each instead of one per frame.
//
// Frame memory is pooled: callers encode into bufPool scratch buffers that
// the flusher recycles once the batch is on the wire (or has failed). An
// entry may also carry a zero-copy tail — a payload slice referenced
// directly, never copied into the frame buffer; the node's larger GET
// responses use this to point straight into the segment.

// bufPool recycles frame scratch buffers across calls and connections. The
// pool stores *[]byte (not []byte) so Put does not allocate a slice header.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// maxPooledBuf bounds what returns to the pool: a rare huge frame (workload
// AMs, multi-megabyte PUTs) must not pin its allocation forever.
const maxPooledBuf = 1 << 18

// corkHighWater bounds how many corked bytes wait for a flush: the enqueue
// that reaches it flushes. It matches the peer's 64 KiB buffered reader, so a
// window of any length (a 16K-element preload) streams in reader-sized
// batches and the queue's memory stays bounded.
const corkHighWater = 64 << 10

// maxRetainedEntries bounds the capacity the queue's reusable slices (pend,
// spare, and the iovec scratch) keep between flushes. A burst may grow them
// past it; they are then dropped instead of retained for the life of the
// connection.
const maxRetainedEntries = 2048

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if b == nil || cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// wqEntry is one frame awaiting flush.
type wqEntry struct {
	buf *[]byte // pooled frame bytes (length prefix + header [+ payload])
	// tail, when non-nil, is written immediately after *buf without being
	// copied (zero-copy response payloads). The slice must stay valid until
	// release runs.
	tail []byte
	// deadline is when the caller gives up (zero = none). A batch arms the
	// earliest deadline of its frames as the connection write deadline.
	deadline time.Time
	// release, when non-nil, runs exactly once after the entry's bytes are
	// written or the write has failed (the node recycles request-body
	// buffers here).
	release func()
}

// releaseEntry returns an entry's pooled resources and runs its callback.
func releaseEntry(e *wqEntry) {
	if e.buf != nil {
		putBuf(e.buf)
	}
	if e.release != nil {
		e.release()
	}
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
	// last took the queue; corkedAt is the clock reading taken when the first
	// of them arrived (zero while nothing is corked), which every frame of
	// the window shares as the base of its deadline.
	corked   int
	corkedAt time.Time
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
// its read buffer, and the client corks a caller's Start* window until its
// first Wait, so a burst of N frames produces one writev instead of N
// single-frame flushes.
//
// With timeout > 0 the frame's deadline — stored in the entry and returned —
// is timeout past the moment the current cork window opened: one clock
// reading per window instead of one per frame.
func (q *writeQueue) enqueueDeferred(e wqEntry, timeout time.Duration) (time.Time, error) {
	q.mu.Lock()
	if q.err != nil {
		err := q.err
		q.mu.Unlock()
		releaseEntry(&e)
		return time.Time{}, err
	}
	if timeout > 0 {
		if q.corkedAt.IsZero() {
			q.corkedAt = time.Now()
		}
		e.deadline = q.corkedAt.Add(timeout)
	}
	q.pend = append(q.pend, e)
	q.corked += len(*e.buf) + len(e.tail)
	flush := q.corked >= corkHighWater && !q.flushing
	if flush {
		q.flushing = true
	}
	q.mu.Unlock()
	if flush {
		q.flushLoop()
	}
	return e.deadline, nil
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
		q.corked, q.corkedAt = 0, time.Time{}
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
		b := *batch[i].buf
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
