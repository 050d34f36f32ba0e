package comm

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"
)

// Allocation-regression benchmarks for the comm fast path. ci.sh's serve tier
// runs these with -benchmem and gates on pinned allocs/op budgets: frame
// encode must stay zero-alloc, pooled decode must not regress to a
// per-frame allocation, and a deadline-bearing round trip must not recreate
// its timer per call (time.NewTimer is 3 allocs on its own — the pooled
// timer keeps it off the per-op path).

// BenchmarkFrameEncode: one GET request frame into a reused scratch buffer.
// Budget: 0 allocs/op.
func BenchmarkFrameEncode(b *testing.B) {
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendRequestFrame(buf[:0], msgGet, uint64(i), frameSpec{seg: 7, off: 4096, length: 64})
	}
	_ = buf
}

// BenchmarkFrameEncodePut: a PUT frame with a 64-byte payload, reused buffer.
// Budget: 0 allocs/op.
func BenchmarkFrameEncodePut(b *testing.B) {
	var buf []byte
	data := bytes.Repeat([]byte{0xAB}, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendRequestFrame(buf[:0], msgPut, uint64(i), frameSpec{seg: 7, off: 4096, data: data})
	}
	_ = buf
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

// BenchmarkFrameDecodePooled: the node's pooled decode of a PUT frame.
// Budget: 1 alloc/op — the 4-byte prefix buffer escapes into the io.ReadFull
// interface call; the frame body itself comes from and returns to the pool.
func BenchmarkFrameDecodePooled(b *testing.B) {
	frameBytes := appendRequestFrame(nil, msgPut, 42, frameSpec{seg: 7, off: 64, data: bytes.Repeat([]byte{1}, 64)})
	r := &loopReader{data: frameBytes}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var lenBuf [4]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			b.Fatal(err)
		}
		_, _, _, body, err := readFrameBodyPooled(r, lenBuf)
		if err != nil {
			b.Fatal(err)
		}
		putBuf(body)
	}
}

func benchPair(b *testing.B, unbatched bool) (*Node, *Client, uint64) {
	b.Helper()
	n, err := NewNodeConfig("127.0.0.1:0", NodeConfig{Unbatched: unbatched})
	if err != nil {
		b.Fatalf("NewNode: %v", err)
	}
	b.Cleanup(func() { n.Close() })
	// CallTimeout is set so every round trip runs the deadline arm — the
	// pooled-timer path this benchmark exists to keep honest.
	c, err := DialConfig(n.Addr(), ClientConfig{CallTimeout: 30 * time.Second, Unbatched: unbatched})
	if err != nil {
		b.Fatalf("Dial: %v", err)
	}
	b.Cleanup(func() { c.Close() })
	return n, c, n.AllocSegment(4096)
}

// BenchmarkGetRoundTrip: one synchronous 64-byte GET over loopback, batched
// path, call deadline armed. The allocs/op budget (ci.sh serve) holds the
// whole client+node round trip — frame encode, pooled decode, zero-copy
// reply, pooled wait timer — to a fixed allocation count.
func BenchmarkGetRoundTrip(b *testing.B) {
	_, c, seg := benchPair(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get(seg, 0, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutRoundTrip: one synchronous 64-byte PUT over loopback, batched
// path, call deadline armed.
func BenchmarkPutRoundTrip(b *testing.B) {
	_, c, seg := benchPair(b, false)
	data := bytes.Repeat([]byte{0xCD}, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put(seg, 0, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowGet: a window of 32 or 256 GETs started, then collected, on
// one connection — the shape dist's ReadMany drives (a 256-element batch over
// two nodes is two windows of 128). The client corks the window, so each is
// one request writev and one reply writev. Reported per GET.
func BenchmarkWindowGet(b *testing.B) {
	for _, depth := range []int{32, 256} {
		b.Run(fmt.Sprint(depth), func(b *testing.B) {
			_, c, seg := benchPair(b, false)
			pend := make([]*Pending, depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += depth {
				window := depth
				if rem := b.N - i; rem < depth {
					window = rem
				}
				for j := 0; j < window; j++ {
					pend[j] = c.StartGet(seg, (j%64)*64, 64)
				}
				for j := 0; j < window; j++ {
					if _, err := pend[j].Wait(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkFlushAfterBurst: a single-frame round trip on a connection that
// has carried a large window, as every serving connection has after its
// preload. What the burst grew — both queues' iovec scratch above all — must
// not tax later flushes: this should read the same as BenchmarkGetRoundTrip.
func BenchmarkFlushAfterBurst(b *testing.B) {
	_, c, seg := benchPair(b, false)
	var v [8]byte
	pend := make([]*Pending, 16384)
	for i := range pend {
		pend[i] = c.StartPut(seg, 0, v[:])
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

// BenchmarkGetRoundTripUnbatched: the legacy locked-Write path, for the A/B
// delta in benchmark output (not gated — it is the baseline, not the product).
func BenchmarkGetRoundTripUnbatched(b *testing.B) {
	_, c, seg := benchPair(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get(seg, 0, 64); err != nil {
			b.Fatal(err)
		}
	}
}
