package comm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
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
	buf := frame(nil, msgGetV, 42, []byte("hello"))
	typ, seq, payload, err := readFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if typ != msgGetV || seq != 42 || string(payload) != "hello" {
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
	// A point Get and Put are one-element GETV and PUTV payloads.
	v, err := decodeVec(msgGetV, vecPayloadOf(64, vecEntry(7, 13)))
	if seg, off, _ := v.at(0); err != nil || v.count() != 1 || v.elemLen != 64 || seg != 7 || off != 13 {
		t.Fatalf("one-element GETV codec: %+v %v", v, err)
	}
	v, err = decodeVec(msgPutV, vecPayloadOf(2, vecEntry(3, 5, 9, 9)))
	if seg, off, data := v.at(0); err != nil || v.count() != 1 || seg != 3 || off != 5 || !bytes.Equal(data, []byte{9, 9}) {
		t.Fatalf("one-element PUTV codec: %d %d %v %v", seg, off, data, err)
	}
	h, data, err := decodeAM(encodeAM(21, []byte("x")))
	if err != nil || h != 21 || string(data) != "x" {
		t.Fatalf("AM codec: %d %q %v", h, data, err)
	}
	if _, err := decodeVec(msgGetV, vecPayloadOf(8, vecEntry(7, 13)[:15])); err == nil {
		t.Fatal("short GETV entry accepted")
	}
	if _, err := decodeVec(msgPutV, vecPayloadOf(2, vecEntry(3, 5, 9))); err == nil {
		t.Fatal("short PUTV entry accepted")
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

// A point Get or Put is a one-element GETV or PUTV, whose element length must
// be positive: a zero-length Get or an empty Put is rejected, not served as
// an empty read or a no-op write.
func TestZeroLengthPointOpRejected(t *testing.T) {
	n, c := newTestPair(t)
	seg := n.AllocSegment(8)
	if b, err := c.Get(seg, 0, 0); err == nil || !strings.Contains(err.Error(), "element length 0") {
		t.Fatalf("zero-length Get = %x, %v; want an element-length error", b, err)
	}
	if err := c.Put(seg, 0, nil); err == nil || !strings.Contains(err.Error(), "element length 0") {
		t.Fatalf("empty Put = %v; want an element-length error", err)
	}
}

// The point GET (0x01) and PUT (0x02) type bytes are retired: a frame
// carrying either, traced or not, gets an error reply like any unknown type,
// and the connection goes on to serve a GETV.
func TestRetiredTypeBytesRejected(t *testing.T) {
	n, _ := newTestPair(t)
	seg := n.AllocSegment(16)
	if err := n.WriteElem(seg, 8, []byte("elem0008")); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	roundTrip := func(req []byte) (byte, uint64, []byte) {
		t.Helper()
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		typ, seq, payload, err := readFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		return typ, seq, payload
	}
	oldGet := binary.BigEndian.AppendUint32(vecEntry(seg, 8), 8) // [seg][off][4B length]
	oldPut := vecEntry(seg, 8, []byte("clobber!")...)            // [seg][off][data]
	trace := vecEntry(0x11, 0x22)                                // [traceID][spanID]
	for i, req := range [][]byte{
		frame(nil, 0x01, 1, oldGet),
		frame(nil, 0x02, 2, oldPut),
		frame(nil, 0x01|traceFlag, 3, append(trace, oldGet...)),
		frame(nil, 0x02|traceFlag, 4, append(trace, oldPut...)),
	} {
		typ, seq, payload := roundTrip(req)
		if typ != msgError || seq != uint64(i+1) || !strings.Contains(string(payload), "unknown message type") {
			t.Fatalf("retired frame %d: reply %#x seq %d %q, want msgError", i+1, typ, seq, payload)
		}
	}
	typ, seq, payload := roundTrip(appendRequestFrame(nil, msgGetV, 5, frameSpec{length: 8, vec: []VecAddr{{seg, 8}}}))
	if typ != msgOK || seq != 5 || string(payload) != "elem0008" {
		t.Fatalf("GETV after the retired frames: reply %#x seq %d %q", typ, seq, payload)
	}
}

// TestPutDoesNotRaceGet: one client storing an element while another reads
// it, point ops and one-element vectored ops alike, is not a data race —
// aligned 8-byte elements move by atomic word access on the node — and every
// read returns one of the values stored, never a mix of two.
func TestPutDoesNotRaceGet(t *testing.T) {
	n, reader := newTestPair(t)
	writer, err := Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	seg := n.AllocSegment(64)
	at := []VecAddr{{seg, 24}}
	vals := [2][]byte{elems(0x0101010101010101), elems(0xfefefefefefefefe)}
	const rounds = 1000
	done := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			if i%2 == 0 {
				if err := writer.Put(seg, 24, vals[i/2%2]); err != nil {
					done <- err
					return
				}
			} else if _, err := writer.StartPutV(8, at, vals[i/2%2], TraceCtx{}).Wait(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < rounds; i++ {
		var got []byte
		if i%2 == 0 {
			got, err = reader.Get(seg, 24, 8)
		} else {
			got, err = reader.StartGetV(8, at, TraceCtx{}).Wait()
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, 8)) && !bytes.Equal(got, vals[0]) && !bytes.Equal(got, vals[1]) {
			t.Fatalf("read %x: a mix of the stored values", got)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
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
