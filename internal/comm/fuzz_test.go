package comm

import (
	"bytes"
	"testing"
)

// FuzzFrameRoundTrip: any (type, seq, payload) survives encode/decode.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(byte(1), uint64(0), []byte{})
	f.Add(msgGetV, uint64(42), []byte("hello"))
	f.Add(msgError, ^uint64(0), bytes.Repeat([]byte{0xAA}, 1024))
	f.Fuzz(func(t *testing.T, typ byte, seq uint64, payload []byte) {
		if len(payload) > maxFrame-headerLen {
			t.Skip()
		}
		buf := frame(nil, typ, seq, payload)
		gotTyp, gotSeq, gotPayload, err := readFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("readFrame of own frame: %v", err)
		}
		if gotTyp != typ || gotSeq != seq || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("round trip mismatch: (%#x,%d,%d bytes) -> (%#x,%d,%d bytes)",
				typ, seq, len(payload), gotTyp, gotSeq, len(gotPayload))
		}
	})
}

// FuzzReadFrameNoPanic: arbitrary bytes never panic the frame reader; they
// either parse as a frame or return an error.
func FuzzReadFrameNoPanic(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 9, 1, 0, 0, 0, 0, 0, 0, 0, 42})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _, _ = readFrame(bytes.NewReader(data))
	})
}

// FuzzPayloadDecoders: the AM/GETV/PUTV payload decoders reject malformed
// input with errors, never panics, and round-trip well-formed input — the
// one-element GETV and PUTV of a point Get and Put included.
func FuzzPayloadDecoders(f *testing.F) {
	f.Add(uint64(1), uint64(2), []byte("x"))
	f.Add(uint64(0), ^uint64(0), []byte{0, 0, 0, 8, 1, 2, 3})
	f.Fuzz(func(t *testing.T, a, b uint64, data []byte) {
		h, d2, err := decodeAM(encodeAM(uint16(a), data))
		if err != nil || h != uint16(a) || !bytes.Equal(d2, data) {
			t.Fatalf("AM round trip: %d %v", h, err)
		}
		if len(data) > 0 {
			// One and two entries of len(data)-byte elements.
			for _, at := range [][]VecAddr{{{a, b}}, {{a, b}, {b, a}}} {
				for _, typ := range []byte{msgGetV, msgPutV} {
					s := frameSpec{length: uint32(len(data)), vec: at}
					if typ == msgPutV {
						s.data = bytes.Repeat(data, len(at))
					}
					v, err := decodeVec(typ, appendRequestFrame(nil, typ, 1, s)[13:])
					if err != nil || v.elemLen != len(data) || v.count() != len(at) {
						t.Fatalf("%s round trip: %+v %v", opName(typ), v, err)
					}
					for i, want := range at {
						seg, off, d := v.at(i)
						if seg != want.Seg || off != want.Off || (typ == msgPutV && !bytes.Equal(d, data)) {
							t.Fatalf("%s entry %d: %d %d %x", opName(typ), i, seg, off, d)
						}
					}
				}
			}
		}
		// Arbitrary bytes into the decoders must not panic.
		_, _, _ = decodeAM(data)
		_, _ = decodeVec(msgGetV, data)
		_, _ = decodeVec(msgPutV, data)
	})
}

// FuzzVectorDispatch applies arbitrary GETV/PUTV payloads to a node holding
// two small segments. Nothing may panic; a rejected frame writes nothing and
// holds no reply buffer; an accepted GETV returns exactly count × elemLen
// bytes, the elements it names; an accepted PUTV writes exactly its
// elements. The seeds include the malformed shapes: an entry count that
// disagrees with the payload length, element length 0, an offset past the
// end of a segment, and an unknown segment.
func FuzzVectorDispatch(f *testing.F) {
	for _, get := range []bool{true, false} {
		var d []byte
		if !get {
			d = []byte{1, 2, 3, 4, 5, 6, 7, 8}
		}
		f.Add(get, vecPayloadOf(8, vecEntry(1, 0, d...), vecEntry(2, 8, d...))) // well formed
		f.Add(get, vecPayloadOf(8, vecEntry(1, 0, d...), []byte{1, 2, 3}))      // count disagrees with length
		f.Add(get, vecPayloadOf(0, vecEntry(1, 0)))                             // element length 0
		f.Add(get, vecPayloadOf(8, vecEntry(1, 60, d...)))                      // past the end of the segment
		f.Add(get, vecPayloadOf(8, vecEntry(1, 0, d...), vecEntry(3, 0, d...))) // unknown segment
		f.Add(get, vecPayloadOf(8, vecEntry(2, ^uint64(0), d...)))              // offset that wraps
		f.Add(get, vecPayloadOf(maxFrame-headerLen, vecEntry(2, 0)))            // huge element
	}
	f.Fuzz(func(t *testing.T, get bool, payload []byte) {
		typ := msgPutV
		if get {
			typ = msgGetV
		}
		n := memNode()
		n.RestoreSegment(1, bytes.Repeat([]byte{0xA5}, 64))
		n.RestoreSegment(2, bytes.Repeat([]byte{0x5A}, 256))
		before := map[uint64][]byte{}
		for id := uint64(1); id <= 2; id++ {
			s, _ := n.SnapshotSegment(id)
			before[id] = s
		}
		resp, reply, err := n.dispatchData(typ, payload, 0, 0)
		if err != nil {
			if resp != nil || reply != (frameRef{}) {
				t.Fatalf("rejected %s returned a reply", opName(typ))
			}
			for id, want := range before {
				if got, _ := n.Segment(id); !bytes.Equal(got, want) {
					t.Fatalf("rejected %s wrote segment %d", opName(typ), id)
				}
			}
			return
		}
		defer reply.release()
		v, verr := decodeVec(typ, payload)
		if verr != nil {
			t.Fatalf("accepted %s that does not decode: %v", opName(typ), verr)
		}
		want := before
		for i := 0; i < v.count(); i++ {
			seg, off, d := v.at(i)
			w := want[seg][off : off+uint64(v.elemLen)]
			if get {
				if !bytes.Equal(resp[i*v.elemLen:(i+1)*v.elemLen], w) {
					t.Fatalf("GETV element %d = %x, want %x", i, resp[i*v.elemLen:(i+1)*v.elemLen], w)
				}
			} else {
				copy(w, d)
			}
		}
		if get && len(resp) != v.count()*v.elemLen {
			t.Fatalf("GETV reply %d bytes for %d × %d", len(resp), v.count(), v.elemLen)
		}
		for id, w := range want {
			if got, _ := n.Segment(id); !bytes.Equal(got, w) {
				t.Fatalf("%s left segment %d = %x, want %x", opName(typ), id, got, w)
			}
		}
	})
}
