package comm

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"
)

// Allocation-regression bodies for the comm fast path. Each hotPath entry is
// timed by its Benchmark* function and counted by TestAllocBudgets, which pins
// allocs/op in tier-1: frame encode must stay zero-alloc, pooled decode must
// not regress to a per-frame allocation, and a deadline-bearing round trip
// must not recreate its timer per call (time.NewTimer is 3 allocs on its own —
// the pooled timer keeps it off the per-op path).
type hotPath struct {
	name   string
	budget float64 // allocs per op, client and node together
	// setup returns the body and how many ops one call of it performs (a
	// window's depth; 1 otherwise).
	setup func(tb testing.TB) (body func(), ops int)
}

var hotPaths = []hotPath{
	{"FrameEncode", 0, frameEncode},
	{"FrameEncodePut", 0, frameEncodePut},
	// The 4-byte prefix buffer escapes into the io.ReadFull interface call;
	// the frame body itself comes from and returns to the pool.
	{"FrameDecodePooled", 1, frameDecodePooled},
	// The whole client+node round trip of a point op, a one-element GETV or
	// PUTV: frame encode, pooled decode, pooled reply, pooled wait timer.
	{"GetRoundTrip", 9, getRoundTrip},
	{"PutRoundTrip", 9, putRoundTrip},
	{"WindowGet/32", 8, windowGet(32)},
	{"WindowGet/256", 8, windowGet(256)},
	// One vectored GET frame, client and node together. The budget is per
	// frame: 16 and 256 elements must cost the same.
	{"GetV/16", 9, getV(16)},
	{"GetV/256", 9, getV(256)},
}

// TestAllocBudgets fails when a hot-path body allocates more per op than its
// pinned budget. Counts are deterministic where timings on a shared host are
// not, so this is the gate that catches a per-call time.NewTimer or a frame
// body that stopped coming from the pool.
func TestAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are not meaningful under the race detector's -short tier")
	}
	const iterations = 10000
	for _, h := range hotPaths {
		t.Run(h.name, func(t *testing.T) {
			body, ops := h.setup(t)
			got := testing.AllocsPerRun(iterations/ops, body) / float64(ops)
			if got > h.budget {
				t.Errorf("%.2f allocs/op exceeds budget %v", got, h.budget)
			}
		})
	}
}

// benchBody times one hot-path body; a windowed body rounds b.N up to whole
// windows.
func benchBody(b *testing.B, setup func(testing.TB) (func(), int)) {
	body, ops := setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += ops {
		body()
	}
}

// frameEncode: one point Get's request frame, a one-element GETV, into a
// reused scratch buffer.
func frameEncode(testing.TB) (func(), int) {
	var buf []byte
	var seq uint64
	at := []VecAddr{{7, 4096}}
	return func() {
		seq++
		buf = appendRequestFrame(buf[:0], msgGetV, seq, frameSpec{length: 64, vec: at})
	}, 1
}

// frameEncodePut: one point Put's request frame, a one-element PUTV with a
// 64-byte element, into a reused buffer.
func frameEncodePut(testing.TB) (func(), int) {
	var buf []byte
	var seq uint64
	at := []VecAddr{{7, 4096}}
	data := bytes.Repeat([]byte{0xAB}, 64)
	return func() {
		seq++
		buf = appendRequestFrame(buf[:0], msgPutV, seq, frameSpec{length: 64, vec: at, data: data})
	}, 1
}

// loopReader replays one frame's bytes forever without allocating.
type loopReader struct {
	data []byte
	pos  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.pos == len(r.data) {
		r.pos = 0
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

// frameDecodePooled: the node's pooled decode of a point Put's frame.
func frameDecodePooled(tb testing.TB) (func(), int) {
	frameBytes := appendRequestFrame(nil, msgPutV, 42, frameSpec{length: 64, vec: []VecAddr{{7, 64}}, data: bytes.Repeat([]byte{1}, 64)})
	r := &loopReader{data: frameBytes}
	return func() {
		var lenBuf [4]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			tb.Fatal(err)
		}
		_, _, _, body, err := readFrameBodyPooled(r, lenBuf)
		if err != nil {
			tb.Fatal(err)
		}
		body.release()
	}, 1
}

func benchPair(tb testing.TB) (*Node, *Client, uint64) {
	tb.Helper()
	n, err := NewNode("127.0.0.1:0")
	if err != nil {
		tb.Fatalf("NewNode: %v", err)
	}
	tb.Cleanup(func() { n.Close() })
	// CallTimeout is set so every round trip runs the deadline arm — the
	// pooled-timer path these bodies exist to keep honest.
	c, err := DialConfig(n.Addr(), ClientConfig{CallTimeout: 30 * time.Second})
	if err != nil {
		tb.Fatalf("Dial: %v", err)
	}
	tb.Cleanup(func() { c.Close() })
	return n, c, n.AllocSegment(4096)
}

// getRoundTrip: one synchronous 64-byte GET over loopback, call deadline
// armed.
func getRoundTrip(tb testing.TB) (func(), int) {
	_, c, seg := benchPair(tb)
	return func() {
		if _, err := c.Get(seg, 0, 64); err != nil {
			tb.Fatal(err)
		}
	}, 1
}

// putRoundTrip: one synchronous 64-byte PUT over loopback, call deadline
// armed.
func putRoundTrip(tb testing.TB) (func(), int) {
	_, c, seg := benchPair(tb)
	data := bytes.Repeat([]byte{0xCD}, 64)
	return func() {
		if err := c.Put(seg, 0, data); err != nil {
			tb.Fatal(err)
		}
	}, 1
}

// windowGet: a window of depth one-element GETVs started, then collected,
// on one connection. Each frame is sent as it starts; the node corks the
// replies to whatever burst it reads in one go.
func windowGet(depth int) func(testing.TB) (func(), int) {
	return func(tb testing.TB) (func(), int) {
		_, c, seg := benchPair(tb)
		pend := make([]*Pending, depth)
		at := make([]VecAddr, depth)
		for j := range at {
			at[j] = VecAddr{seg, uint64(j%64) * 64}
		}
		return func() {
			for j := range pend {
				pend[j] = c.StartGetV(64, at[j:j+1], TraceCtx{})
			}
			for _, p := range pend {
				if _, err := p.Wait(); err != nil {
					tb.Fatal(err)
				}
			}
		}, depth
	}
}

// getV: one synchronous GETV of n 8-byte elements spread over a 4 KiB
// segment, call deadline armed — the frame dist's ReadMany sends per node.
func getV(n int) func(testing.TB) (func(), int) {
	return func(tb testing.TB) (func(), int) {
		_, c, seg := benchPair(tb)
		at := make([]VecAddr, n)
		for i := range at {
			at[i] = VecAddr{Seg: seg, Off: uint64(i%512) * 8}
		}
		return func() {
			if _, err := c.StartGetV(8, at, TraceCtx{}).Wait(); err != nil {
				tb.Fatal(err)
			}
		}, 1
	}
}

func BenchmarkFrameEncode(b *testing.B)       { benchBody(b, frameEncode) }
func BenchmarkFrameEncodePut(b *testing.B)    { benchBody(b, frameEncodePut) }
func BenchmarkFrameDecodePooled(b *testing.B) { benchBody(b, frameDecodePooled) }
func BenchmarkGetRoundTrip(b *testing.B)      { benchBody(b, getRoundTrip) }
func BenchmarkPutRoundTrip(b *testing.B)      { benchBody(b, putRoundTrip) }

// BenchmarkWindowGet reports per one-element GETV.
func BenchmarkWindowGet(b *testing.B) {
	for _, depth := range []int{32, 256} {
		b.Run(fmt.Sprint(depth), func(b *testing.B) { benchBody(b, windowGet(depth)) })
	}
}

// BenchmarkGetV reports per frame.
func BenchmarkGetV(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(fmt.Sprint(n), func(b *testing.B) { benchBody(b, getV(n)) })
	}
}

// BenchmarkFlushAfterBurst: a single-frame round trip on a connection that
// has carried a large window, as every serving connection has after its
// preload. What the burst grew — both queues' iovec scratch above all — must
// not tax later flushes: this should read the same as BenchmarkGetRoundTrip.
func BenchmarkFlushAfterBurst(b *testing.B) {
	_, c, seg := benchPair(b)
	var v [8]byte
	at := []VecAddr{{seg, 0}}
	pend := make([]*Pending, 16384)
	for i := range pend {
		pend[i] = c.StartPutV(8, at, v[:], TraceCtx{})
	}
	for _, p := range pend {
		if _, err := p.Wait(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get(seg, 0, 64); err != nil {
			b.Fatal(err)
		}
	}
}
