package comm

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"
)

// The trace context is optional end to end: untraced frames must stay
// byte-identical to the pre-tracing wire format, traced frames must round-trip
// through splitTrace, and traced and untraced peers must interoperate on one
// connection. These tests pin all three properties.

func TestUntracedFramesBytesUnchanged(t *testing.T) {
	cases := []struct {
		name string
		typ  byte
		spec frameSpec
		old  []byte // the payload as the message table lays it out
	}{
		{"GETV", msgGetV, frameSpec{length: 64, vec: []VecAddr{{7, 1024}}}, vecPayloadOf(64, vecEntry(7, 1024))},
		{"PUTV", msgPutV, frameSpec{length: 8, vec: []VecAddr{{7, 8}}, data: []byte("abcdefgh")}, vecPayloadOf(8, vecEntry(7, 8, []byte("abcdefgh")...))},
		{"AM", msgAM, frameSpec{handler: 12, data: []byte{1, 2, 3}}, encodeAM(12, []byte{1, 2, 3})},
		{"HELLO", msgHello, frameSpec{data: []byte{9, 9}}, []byte{9, 9}},
	}
	for _, tc := range cases {
		got := appendRequestFrame(nil, tc.typ, 42, tc.spec)
		want := frame(nil, tc.typ, 42, tc.old)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: untraced appendRequestFrame differs from legacy frame:\n got %x\nwant %x", tc.name, got, want)
		}
	}
}

func TestTracedFrameRoundTrip(t *testing.T) {
	want := TraceCtx{TraceID: 0xDEADBEEF12345678, SpanID: 0x1}
	for _, typ := range []byte{msgGetV, msgPutV, msgAM, msgHello} {
		spec := frameSpec{length: 2, vec: []VecAddr{{3, 16}}, handler: 5, data: []byte("xy"), tc: want}
		buf := appendRequestFrame(nil, typ, 9, spec)

		total := binary.BigEndian.Uint32(buf)
		if int(total) != len(buf)-4 {
			t.Fatalf("type %#x: length prefix %d, frame body %d", typ, total, len(buf)-4)
		}
		rawTyp := buf[4]
		if rawTyp != typ|traceFlag {
			t.Fatalf("type %#x: wire type %#x, want flag set", typ, rawTyp)
		}
		seq := binary.BigEndian.Uint64(buf[5:])
		if seq != 9 {
			t.Fatalf("type %#x: seq %d, want 9", typ, seq)
		}
		gotTyp, gotTC, payload, err := splitTrace(rawTyp, buf[13:])
		if err != nil {
			t.Fatalf("type %#x: splitTrace: %v", typ, err)
		}
		if gotTyp != typ || gotTC != want {
			t.Fatalf("type %#x: splitTrace = (%#x, %+v), want (%#x, %+v)", typ, gotTyp, gotTC, typ, want)
		}
		// The post-context payload must equal the untraced encoding's payload.
		untraced := spec
		untraced.tc = TraceCtx{}
		wantPayload := appendRequestFrame(nil, typ, 9, untraced)[13:]
		if !bytes.Equal(payload, wantPayload) {
			t.Fatalf("type %#x: payload %x, want %x", typ, payload, wantPayload)
		}
	}
}

func TestSplitTraceShortFrame(t *testing.T) {
	if _, _, _, err := splitTrace(msgAM|traceFlag, make([]byte, traceHdrLen-1)); err == nil {
		t.Fatal("splitTrace accepted a truncated trace header")
	}
	// Responses keep their high bit: the flag bit must not be interpreted.
	typ, tc, payload, err := splitTrace(msgOK|traceFlag, []byte{1, 2, 3})
	if err != nil || typ != msgOK|traceFlag || tc.Traced() || len(payload) != 3 {
		t.Fatalf("response frame mangled: typ=%#x tc=%+v payload=%x err=%v", typ, tc, payload, err)
	}
}

// FuzzSplitTrace feeds arbitrary type bytes and payloads through the inbound
// path: it must never panic, and untraced frames must pass through untouched.
func FuzzSplitTrace(f *testing.F) {
	f.Add(byte(msgGetV), []byte{})
	f.Add(byte(msgAM|traceFlag), make([]byte, traceHdrLen))
	f.Add(byte(msgPutV|traceFlag), []byte{1})
	f.Add(byte(msgOK), []byte{0xFF})
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		gotTyp, tc, rest, err := splitTrace(typ, payload)
		if typ&traceFlag == 0 || typ&0x80 != 0 {
			// Untraced request or response: identity, never an error.
			if err != nil || gotTyp != typ || tc.Traced() || !bytes.Equal(rest, payload) {
				t.Fatalf("untraced frame not passed through: typ=%#x err=%v", typ, err)
			}
			return
		}
		if len(payload) < traceHdrLen {
			if err == nil {
				t.Fatalf("short traced frame accepted: %d bytes", len(payload))
			}
			return
		}
		if err != nil {
			t.Fatalf("well-formed traced frame rejected: %v", err)
		}
		if gotTyp != typ&^traceFlag || len(rest) != len(payload)-traceHdrLen {
			t.Fatalf("traced frame mis-split: typ=%#x rest=%d", gotTyp, len(rest))
		}
	})
}

// TestTracedUntracedInterop runs traced and untraced calls over one real
// connection: the handler must see exactly the context each call carried.
func TestTracedUntracedInterop(t *testing.T) {
	node, err := NewNode("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	var mu sync.Mutex
	var seen []TraceCtx
	node.HandleCtx(1, "test.echo", func(p []byte, tc TraceCtx) ([]byte, error) {
		mu.Lock()
		seen = append(seen, tc)
		mu.Unlock()
		return p, nil
	})

	c, err := Dial(node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	want := []TraceCtx{
		{},
		{TraceID: 11, SpanID: 22},
		{},
		{TraceID: 11, SpanID: 33},
	}
	for i, tc := range want {
		if _, err := c.CallAMCtx(1, []byte{byte(i)}, time.Second, tc); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != len(want) {
		t.Fatalf("handler saw %d calls, want %d", len(seen), len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("call %d: handler saw %+v, want %+v", i, seen[i], want[i])
		}
	}
}
