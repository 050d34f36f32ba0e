package comm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// FuzzPipelinedTornStream: a stream of back-to-back frames — what the batched
// writer actually produces — decodes identically through both the plain and
// the pooled reader, for a read torn at EVERY byte boundary in the stream.
// This is the wire shape writev creates: a torn read can land mid-prefix,
// mid-header, or mid-payload of any frame in the batch.
func FuzzPipelinedTornStream(f *testing.F) {
	f.Add(uint64(1), []byte("abc"), uint8(3))
	f.Add(uint64(0), []byte{}, uint8(1))
	f.Add(^uint64(0), bytes.Repeat([]byte{0xAA}, 48), uint8(4))
	f.Fuzz(func(t *testing.T, seq uint64, payload []byte, nFrames uint8) {
		count := int(nFrames%4) + 1
		if len(payload) > 64 {
			t.Skip() // keep streams small: every split point is exercised
		}
		// Build a pipelined stream mixing the frame kinds the fast path
		// emits: one-element GETV and PUTV requests (a point Get and Put)
		// via the scratch encoder, plus a raw response-style frame.
		var stream []byte
		type want struct {
			typ     byte
			seq     uint64
			payload []byte
		}
		var wants []want
		for i := 0; i < count; i++ {
			s := seq + uint64(i)
			// appendRequestFrame encodes ONE frame into a scratch buffer
			// (it resets buf like the production encoder); concatenate the
			// results to build the pipelined stream.
			switch i % 3 {
			case 0:
				stream = append(stream, appendRequestFrame(nil, msgGetV, s, frameSpec{length: 32, vec: []VecAddr{{s, 7}}})...)
				wants = append(wants, want{msgGetV, s, vecPayloadOf(32, vecEntry(s, 7))})
			case 1:
				spec := frameSpec{length: uint32(len(payload)), vec: []VecAddr{{s, 9}}, data: payload}
				stream = append(stream, appendRequestFrame(nil, msgPutV, s, spec)...)
				wants = append(wants, want{msgPutV, s, vecPayloadOf(spec.length, vecEntry(s, 9, payload...))})
			default:
				stream = append(stream, appendRequestFrame(nil, msgOK, s, frameSpec{data: payload})...)
				wants = append(wants, want{msgOK, s, payload})
			}
		}
		decodeAll := func(r io.Reader, pooled bool) {
			t.Helper()
			for _, w := range wants {
				var typ byte
				var gotSeq uint64
				var gotPayload []byte
				var err error
				if pooled {
					var lenBuf [4]byte
					if _, err = io.ReadFull(r, lenBuf[:]); err != nil {
						t.Fatalf("prefix: %v", err)
					}
					var body frameRef
					typ, gotSeq, gotPayload, body, err = readFrameBodyPooled(r, lenBuf)
					defer body.release()
				} else {
					typ, gotSeq, gotPayload, err = readFrame(r)
				}
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if typ != w.typ || gotSeq != w.seq || !bytes.Equal(gotPayload, w.payload) {
					t.Fatalf("frame mismatch: (%#x,%d,%d bytes) != (%#x,%d,%d bytes)",
						typ, gotSeq, len(gotPayload), w.typ, w.seq, len(w.payload))
				}
			}
		}
		// Unbroken stream first, then torn at every split point.
		decodeAll(bytes.NewReader(stream), false)
		decodeAll(bytes.NewReader(stream), true)
		for split := 1; split < len(stream); split++ {
			torn := io.MultiReader(bytes.NewReader(stream[:split]), bytes.NewReader(stream[split:]))
			decodeAll(torn, split%2 == 0)
		}
	})
}

// countingConn counts flushed batches; it satisfies batchWriter so the
// writeQueue hands it whole batches like it would a faultConn. frames counts
// iovecs, which equals frames whenever no entry carries a zero-copy tail.
type countingConn struct {
	net.Conn
	batches   atomic.Int64
	frames    atomic.Int64
	maxFrames atomic.Int64 // largest batch, in iovecs
	maxBytes  atomic.Int64 // largest batch, in bytes
}

func (c *countingConn) writeBatch(bufs net.Buffers) (int64, error) {
	c.batches.Add(1)
	c.frames.Add(int64(len(bufs)))
	var bytes int64
	for _, b := range bufs {
		bytes += int64(len(b))
	}
	if n := int64(len(bufs)); n > c.maxFrames.Load() {
		c.maxFrames.Store(n) // one flusher at a time: no lost update
	}
	if bytes > c.maxBytes.Load() {
		c.maxBytes.Store(bytes)
	}
	return writeBuffers(c.Conn, bufs)
}

// okEntry is a minimal queue entry: one pooled msgOK frame, plus an optional
// request body released with it.
func okEntry(seq uint64, body frameRef) wqEntry {
	buf := getFrame()
	buf.set(appendRequestFrame(buf.bytes()[:0], msgOK, seq, frameSpec{}))
	return wqEntry{buf: buf.handoff(), body: body}
}

// bodies hands out pooled request bodies for okEntry and counts how many of
// them have been released since.
type bodies []frameRef

func (b *bodies) next() frameRef {
	f := getFrame().handoff()
	*b = append(*b, f)
	return f
}

func (b bodies) released() int {
	n := 0
	for _, f := range b {
		if f.fb.gen != f.gen {
			n++
		}
	}
	return n
}

// TestFramePoolOwnership pins the frameRef contract: each misuse of a pooled
// frame panics on the spot, and the panic names the misuse.
func TestFramePoolOwnership(t *testing.T) {
	cases := []struct {
		name, want string
		misuse     func()
	}{
		{"double-release", "released twice", func() {
			f := getFrame()
			f.release()
			f.release()
		}},
		{"release-after-handoff", "released after hand-off", func() {
			f := getFrame()
			e := wqEntry{buf: f.handoff()}
			defer releaseEntry(&e)
			f.release()
		}},
		{"read-after-release", "read after release", func() {
			f := getFrame()
			f.release()
			_ = f.bytes()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want one naming %q", msg, tc.want)
				}
			}()
			tc.misuse()
		})
	}
}

// Corked entries must coalesce: N enqueueDeferred frames followed by one kick
// flush as a single batch, not N.
func TestWriteQueueCorkedBatch(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cc := &countingConn{Conn: a}
	q := newWriteQueue(cc, nil, nil)

	const frames = 5
	got := make(chan int, 1)
	go func() {
		n := 0
		for i := 0; i < frames; i++ {
			if _, _, _, err := readFrame(b); err != nil {
				break
			}
			n++
		}
		got <- n
	}()
	for i := 0; i < frames; i++ {
		if err := q.enqueueDeferred(okEntry(uint64(i), frameRef{})); err != nil {
			t.Fatalf("enqueueDeferred: %v", err)
		}
	}
	if n := cc.batches.Load(); n != 0 {
		t.Fatalf("deferred enqueue flushed %d batches before kick", n)
	}
	q.kick()
	if n := <-got; n != frames {
		t.Fatalf("peer read %d frames, want %d", n, frames)
	}
	if n := cc.batches.Load(); n != 1 {
		t.Fatalf("flushed %d batches, want 1", n)
	}
	if n := cc.frames.Load(); n != frames {
		t.Fatalf("flushed %d frames, want %d", n, frames)
	}
	q.kick() // empty kick is a no-op
	if n := cc.batches.Load(); n != 1 {
		t.Fatalf("empty kick flushed a batch")
	}
}

// A severed queue must release every queued entry exactly once and reject
// later enqueues, releasing those too — entries carry pooled request
// bodies, so a leak here pins memory (and a second release panics).
func TestWriteQueueSeverReleasesEntries(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	q := newWriteQueue(a, nil, nil)

	var bs bodies
	entry := func() wqEntry { return okEntry(1, bs.next()) }
	for i := 0; i < 3; i++ {
		if err := q.enqueueDeferred(entry()); err != nil {
			t.Fatalf("enqueueDeferred: %v", err)
		}
	}
	q.sever(fmt.Errorf("test sever"))
	if n := bs.released(); n != 3 {
		t.Fatalf("sever released %d entries, want 3", n)
	}
	if err := q.enqueue(entry()); err == nil {
		t.Fatal("enqueue on severed queue succeeded")
	}
	if n := bs.released(); n != 4 {
		t.Fatalf("rejected enqueue released %d entries total, want 4", n)
	}
	if err := q.enqueueDeferred(entry()); err == nil {
		t.Fatal("enqueueDeferred on severed queue succeeded")
	}
	if n := bs.released(); n != 5 {
		t.Fatalf("rejected deferred enqueue released %d entries total, want 5", n)
	}
}

// A write failure mid-flush severs the queue: the batch — corked entries
// included — and everything queued behind it are released exactly once, and
// the connection is closed so the peer notices.
func TestWriteQueueFlushErrorSevers(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	q := newWriteQueue(a, nil, nil)
	a.Close() // every write now fails
	var bs bodies
	entry := func() wqEntry { return okEntry(1, bs.next()) }
	for i := 0; i < 3; i++ {
		if err := q.enqueueDeferred(entry()); err != nil {
			t.Fatalf("enqueueDeferred: %v", err)
		}
	}
	_ = q.enqueue(entry())
	if n := bs.released(); n != 4 {
		t.Fatalf("failed flush released %d entries, want 4 (3 corked + 1)", n)
	}
	if err := q.enqueue(wqEntry{}); err == nil {
		t.Fatal("queue not sticky-severed after flush failure")
	}
	q.sever(fmt.Errorf("late sever"))
	q.kick()
	if n := bs.released(); n != 4 {
		t.Fatalf("entries released %d times in total, want 4", n)
	}
}

// TestChaosFlusherHammer drives one batched client from 16 goroutines while
// the injector fires stalls and resets at the flushed-batch boundary. Each
// goroutine owns one slot and writes strictly increasing values, redialing
// when the connection severs; a read must always return a value between the
// last acknowledged and the last attempted write for that slot (a failed
// write is in an unknown state — it may or may not have applied).
//
// Odd-numbered goroutines issue the same Put-then-Get as a pipelined
// StartPutV+StartGetV pair instead of two blocking calls, so two frames in
// flight at once meet the stalls and resets too, under the same invariant.
//
// The redial carries a bumped generation, as dist does. Without fencing the
// invariant is not even true: a severed connection's unprocessed frames sit
// in the node's receive buffer and its serve goroutine keeps applying them
// concurrently with the successor connection, so a stale Put could clobber a
// newer acknowledged write. (Removing Identity below reproduces exactly that
// clobber — it is what PR 3's write fencing exists to prevent.)
func TestChaosFlusherHammer(t *testing.T) {
	n, err := NewNode("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()
	const workers = 16
	seg := n.AllocSegment(workers * 8)

	inj := NewInjector(FaultPlan{Seed: 7, Reset: 400, Stall: 1500, StallFor: time.Millisecond})
	var gen atomic.Uint64
	dial := func() (*Client, error) {
		return DialConfig(n.Addr(), ClientConfig{
			Faults: inj, FaultKey: 1, CallTimeout: 5 * time.Second,
			Identity: 0xBEEF, Generation: gen.Add(1),
		})
	}
	var mu sync.Mutex
	cur, err := dial()
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		if cur != nil {
			cur.Close()
		}
	}()
	// client returns a healthy connection, redialing a broken one. All 16
	// goroutines share one client at a time — that sharing is what pushes
	// traffic through the combining flusher.
	client := func() *Client {
		mu.Lock()
		defer mu.Unlock()
		if cur != nil && !cur.Broken() {
			return cur
		}
		if cur != nil {
			cur.Close()
		}
		fresh, err := dial()
		if err != nil {
			cur = nil
			return nil
		}
		cur = fresh
		return cur
	}

	ops := 120
	if testing.Short() {
		ops = 40
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			off := w * 8
			var acked, attempted uint64
			var val [8]byte
			for i := 0; i < ops; i++ {
				c := client()
				if c == nil {
					continue // dial raced a partition; next op retries
				}
				attempted++
				binary.BigEndian.PutUint64(val[:], attempted)
				var got []byte
				var perr, gerr error
				if w%2 == 0 {
					if perr = c.Put(seg, off, val[:]); perr == nil {
						got, gerr = c.Get(seg, off, 8)
					}
				} else {
					// The Get rides behind the Put in wire order. Both
					// Pendings are always collected.
					at := []VecAddr{{seg, uint64(off)}}
					pp, pg := c.StartPutV(8, at, val[:], TraceCtx{}), c.StartGetV(8, at, TraceCtx{})
					_, perr = pp.Wait()
					got, gerr = pg.Wait()
				}
				if perr != nil {
					if !IsTransient(perr) {
						t.Errorf("worker %d: non-transient Put error: %v", w, perr)
						return
					}
					continue
				}
				acked = attempted
				if gerr != nil {
					if !IsTransient(gerr) {
						t.Errorf("worker %d: non-transient Get error: %v", w, gerr)
						return
					}
					continue
				}
				v := binary.BigEndian.Uint64(got)
				if v < acked || v > attempted {
					t.Errorf("worker %d: read %d outside [acked %d, attempted %d]",
						w, v, acked, attempted)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	t.Logf("injected %d resets, %d stalls", inj.Count(FaultReset), inj.Count(FaultStall))

	// The node survives the storm: a clean client sees every slot.
	clean, err := Dial(n.Addr())
	if err != nil {
		t.Fatalf("clean Dial after hammer: %v", err)
	}
	defer clean.Close()
	for w := 0; w < workers; w++ {
		if _, err := clean.Get(seg, w*8, 8); err != nil {
			t.Fatalf("slot %d unreadable after hammer: %v", w, err)
		}
	}
}
