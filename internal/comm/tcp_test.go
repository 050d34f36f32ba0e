package comm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestPair(t *testing.T) (*Node, *Client) {
	t.Helper()
	n, err := NewNode("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	t.Cleanup(func() { n.Close() })
	c, err := Dial(n.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return n, c
}

func TestFrameRoundTrip(t *testing.T) {
	buf := frame(nil, msgGet, 42, []byte("hello"))
	typ, seq, payload, err := readFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if typ != msgGet || seq != 42 || string(payload) != "hello" {
		t.Fatalf("round trip = (%#x, %d, %q)", typ, seq, payload)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	if _, _, _, err := readFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("oversized frame accepted")
	}
	binary.BigEndian.PutUint32(hdr[:], 3) // below header size
	if _, _, _, err := readFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("undersized frame accepted")
	}
}

func TestPayloadCodecs(t *testing.T) {
	seg, off, n, err := decodeGet(encodeGet(7, 13, 64))
	if err != nil || seg != 7 || off != 13 || n != 64 {
		t.Fatalf("GET codec: %d %d %d %v", seg, off, n, err)
	}
	seg, off, data, err := decodePut(encodePut(3, 5, []byte{9, 9}))
	if err != nil || seg != 3 || off != 5 || !bytes.Equal(data, []byte{9, 9}) {
		t.Fatalf("PUT codec: %d %d %v %v", seg, off, data, err)
	}
	h, data, err := decodeAM(encodeAM(21, []byte("x")))
	if err != nil || h != 21 || string(data) != "x" {
		t.Fatalf("AM codec: %d %q %v", h, data, err)
	}
	if _, _, _, err := decodeGet([]byte{1}); err == nil {
		t.Fatal("short GET accepted")
	}
	if _, _, _, err := decodePut([]byte{1}); err == nil {
		t.Fatal("short PUT accepted")
	}
	if _, _, err := decodeAM([]byte{1}); err == nil {
		t.Fatal("short AM accepted")
	}
}

func TestGetPutOverWire(t *testing.T) {
	n, c := newTestPair(t)
	seg := n.AllocSegment(32)

	if err := c.Put(seg, 4, []byte{1, 2, 3, 4}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := c.Get(seg, 4, 4)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("Get = %v", got)
	}
	// The owner's local view agrees.
	local, err := n.Segment(seg)
	if err != nil || !bytes.Equal(local[4:8], got) {
		t.Fatalf("Segment = %v, %v", local, err)
	}
	if n.Served() < 2 {
		t.Fatalf("Served = %d, want >= 2", n.Served())
	}
}

func TestRemoteBoundsChecked(t *testing.T) {
	n, c := newTestPair(t)
	seg := n.AllocSegment(8)
	if _, err := c.Get(seg, 4, 8); err == nil {
		t.Fatal("out-of-bounds Get succeeded")
	}
	if err := c.Put(seg, 7, []byte{1, 2}); err == nil {
		t.Fatal("out-of-bounds Put succeeded")
	}
	if _, err := c.Get(9999, 0, 1); err == nil || !strings.Contains(err.Error(), "unknown segment") {
		t.Fatalf("Get of unknown segment: %v", err)
	}
}

func TestFreedSegmentRejectsAccess(t *testing.T) {
	n, c := newTestPair(t)
	seg := n.AllocSegment(8)
	if err := n.FreeSegment(seg); err != nil {
		t.Fatalf("FreeSegment: %v", err)
	}
	if err := n.FreeSegment(seg); err == nil {
		t.Fatal("double FreeSegment succeeded")
	}
	if _, err := c.Get(seg, 0, 1); err == nil {
		t.Fatal("Get of freed segment succeeded")
	}
}

func TestActiveMessage(t *testing.T) {
	n, c := newTestPair(t)
	n.Handle(5, func(payload []byte) ([]byte, error) {
		return append([]byte("echo:"), payload...), nil
	})
	n.Handle(6, func(payload []byte) ([]byte, error) {
		return nil, fmt.Errorf("handler rejects %q", payload)
	})

	got, err := c.AM(5, []byte("hi"))
	if err != nil || string(got) != "echo:hi" {
		t.Fatalf("AM = %q, %v", got, err)
	}
	if _, err := c.AM(6, []byte("x")); err == nil || !strings.Contains(err.Error(), "rejects") {
		t.Fatalf("AM error not propagated: %v", err)
	}
	if _, err := c.AM(99, nil); err == nil || !strings.Contains(err.Error(), "no handler") {
		t.Fatalf("unknown handler: %v", err)
	}
}

func TestPipelinedConcurrentClients(t *testing.T) {
	n, c := newTestPair(t)
	seg := n.AllocSegment(8 * 64)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var val [8]byte
			binary.BigEndian.PutUint64(val[:], uint64(i))
			if err := c.Put(seg, i*8, val[:]); err != nil {
				errs <- err
				return
			}
			got, err := c.Get(seg, i*8, 8)
			if err != nil {
				errs <- err
				return
			}
			if binary.BigEndian.Uint64(got) != uint64(i) {
				errs <- fmt.Errorf("slot %d: got %v", i, got)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestClientFailsAfterNodeClose(t *testing.T) {
	n, err := NewNode("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	c, err := Dial(n.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	seg := n.AllocSegment(8)
	if _, err := c.Get(seg, 0, 8); err != nil {
		t.Fatalf("Get before close: %v", err)
	}
	n.Close()
	if _, err := c.Get(seg, 0, 8); err == nil {
		t.Fatal("Get succeeded after node close")
	}
	// Subsequent calls fail fast on the closed client.
	if _, err := c.Get(seg, 0, 8); err == nil {
		t.Fatal("second Get succeeded after node close")
	}
}

func TestMultipleClients(t *testing.T) {
	n, _ := newTestPair(t)
	seg := n.AllocSegment(8)
	c2, err := Dial(n.Addr())
	if err != nil {
		t.Fatalf("second Dial: %v", err)
	}
	defer c2.Close()
	if err := c2.Put(seg, 0, []byte{42}); err != nil {
		t.Fatalf("Put from second client: %v", err)
	}
	got, err := n.Segment(seg)
	if err != nil || got[0] != 42 {
		t.Fatalf("Segment = %v, %v", got, err)
	}
}

// Handlers run per-request: a blocked handler must not stall other requests
// pipelined on the same connection.
func TestHandlersRunConcurrently(t *testing.T) {
	n, c := newTestPair(t)
	release := make(chan struct{})
	n.Handle(1, func(payload []byte) ([]byte, error) {
		<-release
		return []byte("slow"), nil
	})
	n.Handle(2, func(payload []byte) ([]byte, error) {
		return []byte("fast"), nil
	})

	slowDone := make(chan error, 1)
	go func() {
		_, err := c.AM(1, nil)
		slowDone <- err
	}()
	// The fast request must complete while the slow handler is blocked.
	fastOK := make(chan error, 1)
	go func() {
		_, err := c.AM(2, nil)
		fastOK <- err
	}()
	select {
	case err := <-fastOK:
		if err != nil {
			t.Fatalf("fast AM failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fast AM stalled behind a blocked handler")
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow AM failed: %v", err)
	}
}

func TestSegmentAccessor(t *testing.T) {
	n, _ := newTestPair(t)
	seg := n.AllocSegment(8)
	b, err := n.Segment(seg)
	if err != nil || len(b) != 8 {
		t.Fatalf("Segment = %d bytes, %v", len(b), err)
	}
	b[0] = 42 // live slice: visible through the next lookup
	got, err := n.Segment(seg)
	if err != nil || got[0] != 42 {
		t.Fatalf("Segment after a write through Segment = %v, %v", got, err)
	}
	if _, err := n.Segment(9999); err == nil {
		t.Fatal("unknown segment accepted")
	}
}
