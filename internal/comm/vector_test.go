package comm

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"rcuarray/internal/obs"
)

// Vectored frames: GETV and PUTV carry many same-length elements in one
// frame, and a point Get or Put is the one-element case. These tests pin
// their wire bytes, their rejection of malformed payloads, their whole-frame
// fencing, their wire order, and their observability.

// memNode is a Node without a listener: enough to drive dispatchData.
func memNode() *Node {
	return &Node{segments: make(map[uint64][]byte), gens: make(map[uint64]uint64)}
}

func TestVectorFrameBytes(t *testing.T) {
	at := []VecAddr{{Seg: 7, Off: 16}, {Seg: 9, Off: 1024}}
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18}
	tc := TraceCtx{TraceID: 0x1122334455667788, SpanID: 0x99}
	const (
		seq     = "000000000000002a"
		trace   = "1122334455667788" + "0000000000000099"
		getBody = "00000008" + // element length
			"0000000000000007" + "0000000000000010" + // seg 7, off 16
			"0000000000000009" + "0000000000000400" // seg 9, off 1024
		putBody = "00000008" +
			"0000000000000007" + "0000000000000010" + "0102030405060708" +
			"0000000000000009" + "0000000000000400" + "1112131415161718"
	)
	cases := []struct {
		name string
		typ  byte
		spec frameSpec
		want string
	}{
		{"GETV", msgGetV, frameSpec{length: 8, vec: at}, "0000002d" + "05" + seq + getBody},
		{"GETV traced", msgGetV, frameSpec{length: 8, vec: at, tc: tc}, "0000003d" + "45" + seq + trace + getBody},
		{"PUTV", msgPutV, frameSpec{length: 8, vec: at, data: data}, "0000003d" + "06" + seq + putBody},
		{"PUTV traced", msgPutV, frameSpec{length: 8, vec: at, data: data, tc: tc}, "0000004d" + "46" + seq + trace + putBody},
	}
	for _, c := range cases {
		b := appendRequestFrame(nil, c.typ, 42, c.spec)
		if got := hex.EncodeToString(b); got != c.want {
			t.Errorf("%s frame\n got %s\nwant %s", c.name, got, c.want)
			continue
		}
		typ, gotTC, payload, err := splitTrace(b[4], b[13:])
		if err != nil || typ != c.typ || gotTC != c.spec.tc {
			t.Fatalf("%s: splitTrace = %#x %+v %v", c.name, typ, gotTC, err)
		}
		v, err := decodeVec(typ, payload)
		if err != nil || v.elemLen != 8 || v.count() != len(at) {
			t.Fatalf("%s: decodeVec = %+v, %v", c.name, v, err)
		}
		for i, a := range at {
			seg, off, d := v.at(i)
			if seg != a.Seg || off != a.Off || (typ == msgPutV && !bytes.Equal(d, data[i*8:(i+1)*8])) {
				t.Fatalf("%s entry %d = (%d, %d, %x)", c.name, i, seg, off, d)
			}
		}
	}
}

// vecPayloadOf builds a raw GETV/PUTV payload: an element length, then the
// entries verbatim.
func vecPayloadOf(elemLen uint32, entries ...[]byte) []byte {
	p := binary.BigEndian.AppendUint32(nil, elemLen)
	for _, e := range entries {
		p = append(p, e...)
	}
	return p
}

// vecEntry is one [seg][off][data] entry.
func vecEntry(seg, off uint64, data ...byte) []byte {
	e := binary.BigEndian.AppendUint64(nil, seg)
	e = binary.BigEndian.AppendUint64(e, off)
	return append(e, data...)
}

// allocBytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// one call of f allocates.
func allocBytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	f() // warm up
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestVectorMalformedRejected: each malformed GETV/PUTV fails with an error,
// writes nothing, hands back no reply buffer, and allocates nothing sized by
// what the frame declares (a 16 MiB element length included).
func TestVectorMalformedRejected(t *testing.T) {
	n := memNode()
	seg := n.AllocSegment(64)
	big := n.AllocSegment(maxFrame / 2) // two whole reads of it overflow a reply
	good := vecEntry(seg, 0, 1, 2, 3, 4, 5, 6, 7, 8)
	cases := []struct {
		name string
		typ  byte
		p    []byte
	}{
		{"GETV shorter than its length field", msgGetV, []byte{0, 0, 8}},
		{"GETV count disagrees with length", msgGetV, vecPayloadOf(8, vecEntry(seg, 0), []byte{1, 2, 3})},
		{"PUTV count disagrees with length", msgPutV, vecPayloadOf(8, good, good[:20])},
		{"GETV without entries", msgGetV, vecPayloadOf(8)},
		{"PUTV without entries", msgPutV, vecPayloadOf(8)},
		{"GETV element length 0", msgGetV, vecPayloadOf(0, vecEntry(seg, 0))},
		{"PUTV element length 0", msgPutV, vecPayloadOf(0, vecEntry(seg, 0))},
		{"GETV element length past the frame limit", msgGetV, vecPayloadOf(maxFrame+1, vecEntry(seg, 0))},
		{"GETV reply past the frame limit", msgGetV, vecPayloadOf(maxFrame/2, vecEntry(big, 0), vecEntry(big, 0))},
		{"GETV 16 MiB element", msgGetV, vecPayloadOf(maxFrame-headerLen, vecEntry(seg, 0))},
		{"GETV offset past the segment", msgGetV, vecPayloadOf(8, vecEntry(seg, 0), vecEntry(seg, 57))},
		{"PUTV offset past the segment", msgPutV, vecPayloadOf(8, good, vecEntry(seg, 64, good[16:]...))},
		{"GETV offset that wraps", msgGetV, vecPayloadOf(8, vecEntry(seg, ^uint64(0)-3))},
		{"PUTV offset that wraps", msgPutV, vecPayloadOf(8, good, vecEntry(seg, ^uint64(0)-3, good[16:]...))},
		{"GETV unknown segment", msgGetV, vecPayloadOf(8, vecEntry(seg, 0), vecEntry(big+1, 0))},
		{"PUTV unknown segment", msgPutV, vecPayloadOf(8, good, vecEntry(big+1, 0, good[16:]...))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, reply, err := n.dispatchData(c.typ, c.p, 0, 0)
			if err == nil || resp != nil || reply != (frameRef{}) {
				t.Fatalf("dispatch = %x, %+v, %v; want an error and no reply", resp, reply, err)
			}
			if s, _ := n.Segment(seg); !bytes.Equal(s, make([]byte, 64)) {
				t.Fatalf("rejected frame wrote the segment: %x", s)
			}
			if got := allocBytesPerRun(20, func() { _, _, _ = n.dispatchData(c.typ, c.p, 0, 0) }); got > 4<<10 {
				t.Fatalf("rejecting a %d-byte payload allocates %d bytes", len(c.p), got)
			}
		})
	}
}

// vecPair dials a fresh client with the given fencing generation to node n.
func vecPair(t *testing.T, n *Node, gen uint64) *Client {
	t.Helper()
	c, err := DialConfig(n.Addr(), ClientConfig{Identity: 7, Generation: gen, CallTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("DialConfig(gen %d): %v", gen, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func elems(vals ...uint64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.BigEndian.AppendUint64(b, v)
	}
	return b
}

// TestVectorPutFencedAsWhole: a PUTV on a connection whose generation has
// been superseded is rejected as a whole — none of the elements it targets,
// across two segments, changes.
func TestVectorPutFencedAsWhole(t *testing.T) {
	n, err := NewNode("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	s1, s2 := n.AllocSegment(32), n.AllocSegment(32)
	at := []VecAddr{{s1, 0}, {s1, 24}, {s2, 8}, {s2, 16}}

	c1 := vecPair(t, n, 1)
	if _, err := c1.StartPutV(8, at, elems(1, 2, 3, 4), TraceCtx{}).Wait(); err != nil {
		t.Fatalf("PUTV on gen 1: %v", err)
	}
	c2 := vecPair(t, n, 2) // the redial that superseded c1
	_, err = c1.StartPutV(8, at, elems(5, 6, 7, 8), TraceCtx{}).Wait()
	var rerr *RemoteError
	if !errors.As(err, &rerr) || IsTransient(err) {
		t.Fatalf("fenced PUTV = %v, want a definitive remote rejection", err)
	}
	for i, a := range at {
		b, err := c2.Get(a.Seg, int(a.Off), 8)
		if err != nil || binary.BigEndian.Uint64(b) != uint64(i+1) {
			t.Fatalf("element %d after fenced PUTV = %x, %v; want %d", i, b, err, i+1)
		}
	}
	// The successor's PUTV lands, and the stale connection can still read.
	if _, err := c2.StartPutV(8, at, elems(9, 10, 11, 12), TraceCtx{}).Wait(); err != nil {
		t.Fatalf("PUTV on gen 2: %v", err)
	}
	if b, err := c1.StartGetV(8, at, TraceCtx{}).Wait(); err != nil || !bytes.Equal(b, elems(9, 10, 11, 12)) {
		t.Fatalf("GETV on the superseded connection = %x, %v", b, err)
	}
}

// TestVectorGetSeesEarlierPut: a GETV started behind a one-element PUTV on
// the same connection, before that PUTV is waited for, sees its write,
// because data-plane frames apply in wire order.
func TestVectorGetSeesEarlierPut(t *testing.T) {
	n, c := newTestPair(t)
	seg := n.AllocSegment(64)
	at := []VecAddr{{seg, 0}, {seg, 8}, {seg, 56}}
	for round := uint64(1); round <= 50; round++ {
		put := c.StartPutV(8, []VecAddr{{seg, 8}}, elems(round), TraceCtx{})
		got, err := c.StartGetV(8, at, TraceCtx{}).Wait()
		if err != nil {
			t.Fatalf("round %d GETV: %v", round, err)
		}
		if _, err := put.Wait(); err != nil {
			t.Fatalf("round %d PUT: %v", round, err)
		}
		if want := elems(0, round, 0); !bytes.Equal(got, want) {
			t.Fatalf("round %d: GETV behind PUT = %x, want %x", round, got, want)
		}
	}
}

// TestVectorFramesObserved: a traced GETV and PUTV each record one client
// latency sample and RPC span, and one node request count and handler span,
// under the span id the frame carried.
func TestVectorFramesObserved(t *testing.T) {
	was := obs.On()
	obs.SetEnabled(true)
	defer obs.SetEnabled(was)

	nreg, creg := obs.NewRegistry(), obs.NewRegistry()
	n, err := NewNodeConfig("127.0.0.1:0", NodeConfig{Obs: nreg})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	c, err := DialConfig(n.Addr(), ClientConfig{Obs: creg, Peer: "p"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seg := n.AllocSegment(64)
	at := []VecAddr{{seg, 0}, {seg, 8}}
	if _, err := c.StartPutV(8, at, elems(1, 2), TraceCtx{TraceID: 1, SpanID: 0xA1}).Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StartGetV(8, at, TraceCtx{TraceID: 1, SpanID: 0xA2}).Wait(); err != nil {
		t.Fatal(err)
	}
	spans := func(r *obs.Registry) map[string]uint64 {
		m := map[string]uint64{}
		for _, e := range r.Tracer().Events() {
			if e.Phase == obs.PhaseComplete {
				m[e.Name] = e.ID
			}
		}
		return m
	}
	cs, ns := spans(creg), spans(nreg)
	for op, id := range map[string]uint64{"PUTV": 0xA1, "GETV": 0xA2} {
		if got := creg.Histogram(fmt.Sprintf("comm_rpc_ns{op=%q,peer=%q}", op, "p")).Count(); got != 1 {
			t.Errorf("client %s latency samples = %d, want 1", op, got)
		}
		if got := nreg.Counter(fmt.Sprintf("comm_served_total{op=%q}", op)).Load(); got != 1 {
			t.Errorf("node %s requests = %d, want 1", op, got)
		}
		if cs["rpc."+op] != id || ns["handle."+op] != id {
			t.Errorf("%s spans: client %#x, node %#x, want %#x on both", op, cs["rpc."+op], ns["handle."+op], id)
		}
	}
}
