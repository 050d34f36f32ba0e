package comm

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Wire protocol for the TCP transport. Every message is a length-prefixed
// frame:
//
//	[4B big-endian frame length (excluding these 4 bytes)]
//	[1B message type][8B sequence number][payload...]
//
// Requests carry a client-chosen sequence number; the matching response
// echoes it, so a client may pipeline requests on one connection.
//
// The data plane is one frame family: a GETV or PUTV carries N same-length
// elements, N implied by the payload length (N >= 1), and a point Get or Put
// is the N = 1 case. A GETV's reply is the N elements concatenated in request
// order; a PUTV's reply is empty. Both apply whole or not at all: one bad
// entry fails the frame before any element is read or written. Type bytes
// 0x01 and 0x02 belonged to the retired point GET and PUT frames; a node
// answers them, like any unknown type, with msgError.
const (
	msgAM    byte = 0x03 // payload: [2B handler][data]
	msgHello byte = 0x04 // payload: [8B identity][8B generation] (write fencing)
	msgGetV  byte = 0x05 // payload: [4B elemLen][N × ([8B segment][8B offset])]
	msgPutV  byte = 0x06 // payload: [4B elemLen][N × ([8B segment][8B offset][elemLen B data])]
	msgOK    byte = 0x80 // payload: response data
	msgError byte = 0x81 // payload: UTF-8 error text
)

// traceFlag marks a request frame that carries a trace context: when set on
// the type byte, a [8B traceID][8B parentSpanID] pair follows the sequence
// number, before the normal payload. The flag is optional end to end —
// untraced frames are byte-identical to the pre-tracing wire format, an old
// node reading a traced frame fails only that frame's decode (the length
// prefix still frames it correctly), and responses never carry the flag
// (they are matched to their request by sequence number). Response types
// (0x80+) keep the high bit, so the flag bit can never collide with them.
const traceFlag byte = 0x40

// traceHdrLen is the size of the optional trace context on the wire.
const traceHdrLen = 16

// TraceCtx is the causal context a traced request carries: the trace it
// belongs to and the client-side span that issued it. The zero value means
// untraced. IDs come from obs.SpanSource (seeded, never wall clock), so a
// replayed run produces an identical trace topology.
type TraceCtx struct {
	TraceID uint64
	SpanID  uint64
}

// Traced reports whether the context should ride the wire.
func (tc TraceCtx) Traced() bool { return tc.TraceID != 0 || tc.SpanID != 0 }

// maxFrame bounds a frame so a corrupt or malicious peer cannot trigger an
// unbounded allocation.
const maxFrame = 16 << 20

const headerLen = 1 + 8 // type + seq

// frame assembles a wire frame into buf (reused across calls) and returns it.
// Only tests and the fuzz target call it: it is the reference encoding that
// appendRequestFrame's output is compared against.
func frame(buf []byte, typ byte, seq uint64, payload []byte) []byte {
	total := headerLen + len(payload)
	buf = append(buf[:0], 0, 0, 0, 0)
	binary.BigEndian.PutUint32(buf, uint32(total))
	buf = append(buf, typ)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	return append(buf, payload...)
}

// frameHeader appends just the length prefix and header for a frame whose
// payload is appended after it, or, for a large AM reply, written separately
// as its own iovec in the batched writev, never copied into the frame buffer.
func frameHeader(buf []byte, typ byte, seq uint64, payloadLen int) []byte {
	buf = append(buf[:0], 0, 0, 0, 0)
	binary.BigEndian.PutUint32(buf, uint32(headerLen+payloadLen))
	buf = append(buf, typ)
	return binary.BigEndian.AppendUint64(buf, seq)
}

// VecAddr names one element of a GETV or PUTV: a segment and a byte offset
// into it.
type VecAddr struct {
	Seg uint64
	Off uint64
}

// frameSpec carries the fields of one request frame so the encoders can
// build the wire bytes in a single pass straight into a pooled buffer — no
// intermediate payload allocation, no second copy. Which fields are live
// depends on the message type: AM uses handler/data, GETV length (the
// element length) and vec, PUTV length/vec/data (len(vec) elements back to
// back), and anything else (hello, tests) sends data verbatim.
type frameSpec struct {
	length  uint32
	handler uint16
	data    []byte
	vec     []VecAddr
	tc      TraceCtx // zero = untraced (wire bytes unchanged)
}

// requestHeader is frameHeader plus the optional trace context: a traced
// request sets the flag bit and carries (traceID, parentSpanID) between the
// sequence number and the payload. Untraced requests produce bytes
// identical to frameHeader's, keeping the wire format backward compatible.
func requestHeader(buf []byte, typ byte, seq uint64, payloadLen int, tc TraceCtx) []byte {
	if !tc.Traced() {
		return frameHeader(buf, typ, seq, payloadLen)
	}
	buf = append(buf[:0], 0, 0, 0, 0)
	binary.BigEndian.PutUint32(buf, uint32(headerLen+traceHdrLen+payloadLen))
	buf = append(buf, typ|traceFlag)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = binary.BigEndian.AppendUint64(buf, tc.TraceID)
	return binary.BigEndian.AppendUint64(buf, tc.SpanID)
}

// splitTrace strips the optional trace context off a just-read request:
// given the raw type byte and the bytes after the sequence number, it
// returns the bare type, the context (zero for untraced peers), and the
// true payload. The node applies it to every inbound frame, so traced and
// untraced clients interoperate on one connection.
func splitTrace(typ byte, payload []byte) (byte, TraceCtx, []byte, error) {
	if typ&traceFlag == 0 || typ&0x80 != 0 {
		return typ, TraceCtx{}, payload, nil
	}
	if len(payload) < traceHdrLen {
		return 0, TraceCtx{}, nil, fmt.Errorf("comm: traced frame with %d payload bytes, want >= %d", len(payload), traceHdrLen)
	}
	tc := TraceCtx{
		TraceID: binary.BigEndian.Uint64(payload),
		SpanID:  binary.BigEndian.Uint64(payload[8:]),
	}
	return typ &^ traceFlag, tc, payload[traceHdrLen:], nil
}

// appendRequestFrame encodes a complete request frame (prefix, header,
// optional trace context, payload) into buf. For an untraced spec the wire
// bytes are identical to frame(typ, seq, payload) with the payload laid out
// as the message table above gives it.
func appendRequestFrame(buf []byte, typ byte, seq uint64, s frameSpec) []byte {
	switch typ {
	case msgAM:
		buf = requestHeader(buf, typ, seq, 2+len(s.data), s.tc)
		buf = binary.BigEndian.AppendUint16(buf, s.handler)
		return append(buf, s.data...)
	case msgGetV:
		buf = requestHeader(buf, typ, seq, 4+16*len(s.vec), s.tc)
		buf = binary.BigEndian.AppendUint32(buf, s.length)
		for _, a := range s.vec {
			buf = binary.BigEndian.AppendUint64(buf, a.Seg)
			buf = binary.BigEndian.AppendUint64(buf, a.Off)
		}
		return buf
	case msgPutV:
		n := int(s.length)
		buf = requestHeader(buf, typ, seq, 4+(16+n)*len(s.vec), s.tc)
		buf = binary.BigEndian.AppendUint32(buf, s.length)
		for i, a := range s.vec {
			buf = binary.BigEndian.AppendUint64(buf, a.Seg)
			buf = binary.BigEndian.AppendUint64(buf, a.Off)
			buf = append(buf, s.data[i*n:(i+1)*n]...)
		}
		return buf
	default:
		buf = requestHeader(buf, typ, seq, len(s.data), s.tc)
		return append(buf, s.data...)
	}
}

// readFrame reads one frame, returning its type, sequence, and payload.
func readFrame(r io.Reader) (typ byte, seq uint64, payload []byte, err error) {
	var lenBuf [4]byte
	if _, err = io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, 0, nil, err
	}
	total := binary.BigEndian.Uint32(lenBuf[:])
	if total < headerLen || total > maxFrame {
		return 0, 0, nil, fmt.Errorf("comm: invalid frame length %d", total)
	}
	body := make([]byte, total)
	if _, err = io.ReadFull(r, body); err != nil {
		return 0, 0, nil, fmt.Errorf("comm: short frame: %w", err)
	}
	return body[0], binary.BigEndian.Uint64(body[1:9]), body[9:], nil
}

// readFrameBodyPooled reads the remainder of a frame whose length prefix has
// already arrived (the node reads the prefix separately so it can arm a
// fresh read deadline for the body) into a pooled frame: the returned
// payload aliases body's bytes, and the caller must release body once the
// payload is no longer referenced — after the handler has copied out and
// the response (which may alias the payload) is on the wire.
func readFrameBodyPooled(r io.Reader, lenBuf [4]byte) (typ byte, seq uint64, payload []byte, body frameRef, err error) {
	total := binary.BigEndian.Uint32(lenBuf[:])
	if total < headerLen || total > maxFrame {
		return 0, 0, nil, frameRef{}, fmt.Errorf("comm: invalid frame length %d", total)
	}
	body = getFrame()
	b := body.bytes()
	if cap(b) < int(total) {
		b = make([]byte, total)
		body.set(b)
	}
	b = b[:total]
	if _, err = io.ReadFull(r, b); err != nil {
		body.release()
		return 0, 0, nil, frameRef{}, fmt.Errorf("comm: short frame: %w", err)
	}
	return b[0], binary.BigEndian.Uint64(b[1:9]), b[9:], body, nil
}

// encodeAM builds an active-message request payload.
func encodeAM(handler uint16, data []byte) []byte {
	p := make([]byte, 0, 2+len(data))
	p = binary.BigEndian.AppendUint16(p, handler)
	return append(p, data...)
}

func decodeAM(p []byte) (handler uint16, data []byte, err error) {
	if len(p) < 2 {
		return 0, nil, fmt.Errorf("comm: AM payload length %d, want >= 2", len(p))
	}
	return binary.BigEndian.Uint16(p), p[2:], nil
}

// vecPayload is a decoded GETV/PUTV payload: count entries of stride bytes,
// each [8B segment][8B offset] followed, in a PUTV, by elemLen data bytes.
type vecPayload struct {
	elemLen int
	stride  int
	entries []byte
}

func (v vecPayload) count() int { return len(v.entries) / v.stride }

// at returns entry i's address and, for a PUTV, its data.
func (v vecPayload) at(i int) (seg, off uint64, data []byte) {
	e := v.entries[i*v.stride : (i+1)*v.stride]
	return binary.BigEndian.Uint64(e), binary.BigEndian.Uint64(e[8:]), e[16:]
}

// decodeVec validates a GETV or PUTV payload's shape. Addresses are checked
// against the segments only when the node applies the frame. The element
// length is bounded by maxFrame, and so is a GETV's reply (N × elemLen): a
// reply the client's reader would refuse as a frame is refused here, before
// anything is read.
func decodeVec(typ byte, p []byte) (vecPayload, error) {
	if len(p) < 4 {
		return vecPayload{}, fmt.Errorf("comm: %s payload length %d, want >= 4", opName(typ), len(p))
	}
	elemLen := binary.BigEndian.Uint32(p)
	if elemLen == 0 || elemLen > maxFrame {
		return vecPayload{}, fmt.Errorf("comm: %s element length %d, want 1..%d", opName(typ), elemLen, maxFrame)
	}
	v := vecPayload{elemLen: int(elemLen), stride: 16, entries: p[4:]}
	if typ == msgPutV {
		v.stride += v.elemLen
	}
	if len(v.entries) == 0 || len(v.entries)%v.stride != 0 {
		return vecPayload{}, fmt.Errorf("comm: %s entries of %d bytes in %d bytes", opName(typ), v.stride, len(v.entries))
	}
	if typ == msgGetV && uint64(v.count())*uint64(elemLen) > maxFrame-headerLen {
		return vecPayload{}, fmt.Errorf("comm: GETV of %d × %d bytes exceeds the frame limit", v.count(), elemLen)
	}
	return v, nil
}
