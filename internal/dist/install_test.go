package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"

	"rcuarray/internal/region"
)

// tableDigest is the reference WAL digest: the CRC of a freshly encoded
// table, which installDigest must equal without re-encoding.
func tableDigest(table []BlockRef) uint32 {
	return crc32.ChecksumIEEE(encodeTable(table))
}

// allocBytes reports the bytes f allocates per call, averaged over runs
// after one warm-up call.
func allocBytes(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	f()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// memArrayNode is a configured one-node cluster with no data dir, whose
// handlers the tests call directly.
func memArrayNode(t testing.TB) *ArrayNode {
	t.Helper()
	n, err := NewArrayNode("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewArrayNode: %v", err)
	}
	t.Cleanup(func() { n.Close() })
	cfg := configureReq{NodeID: 0, BlockSize: 8, Addrs: []string{n.Addr()}}
	if _, err := n.handleConfigure(cfg.encode()); err != nil {
		t.Fatalf("configure: %v", err)
	}
	return n
}

// mixedTable has n entries alternating between node 0 and node 1, at
// segment ids no node allocates.
func mixedTable(n int) []BlockRef {
	table := make([]BlockRef, n)
	for i := range table {
		table[i] = BlockRef{Node: uint32(i % 2), Seg: 1<<40 + uint64(i)}
	}
	return table
}

// TestTableDecodeBoundedByPayload: a table count the payload cannot hold is
// an error before anything is allocated for it, on every decoder that reads
// a table — a frame cannot make a node allocate for entries it did not send.
func TestTableDecodeBoundedByPayload(t *testing.T) {
	n := memArrayNode(t)
	claim := func(prefix int) []byte {
		p := make([]byte, prefix+4)
		binary.BigEndian.PutUint32(p[prefix:], 1<<24) // the largest count not rejected as absurd
		return p
	}
	withOneEntry := append(claim(installTableOff), make([]byte, tableEntryBytes)...)
	cases := []struct {
		name   string
		decode func() error
	}{
		{"decodeTable", func() error { _, err := decodeTable(claim(0)); return err }},
		{"install", func() error { _, err := n.handleInstall(claim(installTableOff)); return err }},
		{"abort", func() error { _, err := n.handleAbort(claim(installTableOff)); return err }},
		{"install with one entry", func() error { _, err := decodeInstall(withOneEntry); return err }},
		{"recover state", func() error { _, err := decodeRecoverState(claim(40)); return err }},
		{"WAL record", func() error { _, err := decodeWALRecord(claim(21)); return err }},
		{"region count", func() error {
			p := installReq{Fence: 1, Epoch: 1, Table: mixedTable(2)}.encode()
			binary.BigEndian.PutUint32(p[len(p)-4:], 1<<24)
			_, err := decodeInstall(p)
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.decode(); err == nil {
				t.Fatal("decoded a table count its payload cannot hold")
			}
			if got := allocBytes(5, func() { _ = c.decode() }); got > 4<<10 {
				t.Fatalf("rejecting the payload allocates %d bytes", got)
			}
		})
	}
}

// TestInstallDigestFromFrame: the digest taken over the install frame's own
// table bytes equals the CRC of the table re-encoded, whatever the table size
// and with or without a region plan after it.
func TestInstallDigestFromFrame(t *testing.T) {
	for _, blocks := range []int{0, 1, 4097} {
		for _, regions := range []bool{false, true} {
			q := installReq{Fence: 9, Epoch: 4, Table: mixedTable(blocks)}
			if regions && blocks > 0 {
				q.Regions = region.Plan(blocks/2, blocks, 8)
			}
			frame := q.encode()
			got, err := decodeInstall(frame)
			if err != nil {
				t.Fatalf("%d blocks, regions %v: decode: %v", blocks, regions, err)
			}
			if d, want := installDigest(frame, got), tableDigest(q.Table); d != want {
				t.Fatalf("%d blocks, regions %v: frame digest %08x, re-encoded %08x", blocks, regions, d, want)
			}
		}
	}
}

// FuzzTableDecode: any input decodes without panicking, and each decoder
// allocates a small multiple of the input's length at most (the largest
// ratio is a region step's 16 bytes decoded from 8, before size-class
// rounding); a table that decodes re-encodes to the bytes it came from (the
// encoding is canonical, which the frame digest relies on) and round-trips.
func FuzzTableDecode(f *testing.F) {
	f.Add(encodeTable(nil))
	f.Add(encodeTable(mixedTable(3)))
	f.Add(installReq{Fence: 1, Epoch: 2, Table: mixedTable(5), Regions: region.Plan(2, 5, 2)}.encode())
	f.Add(installReq{Fence: 1, Epoch: 2, Table: mixedTable(1), Regions: region.Plan(1, 300, 1)}.encode())
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		bound := 3*uint64(len(data)) + 1<<10
		for _, d := range []struct {
			name   string
			decode func()
		}{
			{"decodeTable", func() { _, _ = decodeTable(data) }},
			{"decodeInstall", func() { _, _ = decodeInstall(data) }},
			{"decodeRecoverState", func() { _, _ = decodeRecoverState(data) }},
		} {
			// A stray allocation elsewhere in the process (the fuzz worker's
			// own goroutines) can land in one reading, so an over-bound
			// reading is re-taken before it counts.
			got := allocBytes(1, d.decode)
			for retry := 0; retry < 3 && got > bound; retry++ {
				got = min(got, allocBytes(1, d.decode))
			}
			if got > bound {
				t.Fatalf("%s of %d bytes allocates %d", d.name, len(data), got)
			}
		}
		if table, err := decodeTable(data); err == nil {
			enc := encodeTable(table)
			if !bytes.Equal(enc, data[:len(enc)]) {
				t.Fatalf("re-encoding is not the input:\n got %x\nwant %x", enc, data[:len(enc)])
			}
			back, err := decodeTable(enc)
			if err != nil || !reflect.DeepEqual(back, table) {
				t.Fatalf("round trip = %v, %v; want %v", back, err, table)
			}
		}
		if q, err := decodeInstall(data); err == nil {
			if d, want := installDigest(data, q), tableDigest(q.Table); d != want {
				t.Fatalf("frame digest %08x, re-encoded %08x", d, want)
			}
		}
	})
}

// installLoop returns a body that runs one single-step install of a
// blocks-entry table on a fresh in-memory node, each at a fresh fence, with one ledger row the
// table does not reference (a straggler to free), so the body exercises
// decode, digest, the ledger scan and the publication.
func installLoop(tb testing.TB, blocks int) func() {
	n := memArrayNode(tb)
	frame := installReq{Epoch: 1, Table: mixedTable(blocks)}.encode()
	var fence uint64
	return func() {
		fence++
		binary.BigEndian.PutUint64(frame, fence)
		n.mu.Lock()
		n.allocs[fence] = allocEntry{seg: n.srv.AllocSegment(8 * elemBytes), fence: fence}
		n.mu.Unlock()
		if _, err := n.handleInstall(frame); err != nil {
			tb.Fatalf("install at fence %d: %v", fence, err)
		}
	}
}

// TestInstallAllocsFlat: an install's allocation count does not depend on
// the table's size, and the decoded table is the only table-sized
// allocation — so a re-encode or a table-sized map coming back fails here.
func TestInstallAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are not meaningful under the race detector's -short tier")
	}
	const small, large = 256, 4096
	allocs := map[int]float64{}
	sizes := map[int]uint64{}
	for _, blocks := range []int{small, large} {
		install := installLoop(t, blocks)
		allocs[blocks] = testing.AllocsPerRun(50, install)
		sizes[blocks] = allocBytes(50, install)
	}
	if allocs[small] != allocs[large] {
		t.Errorf("install allocs: %v at %d blocks, %v at %d", allocs[small], small, allocs[large], large)
	}
	decoded := uint64(large-small) * uint64(reflect.TypeFor[BlockRef]().Size())
	if grow := sizes[large] - sizes[small]; sizes[large] < sizes[small] || grow > decoded+8<<10 {
		t.Errorf("install bytes: %d at %d blocks, %d at %d; the decoded table accounts for %d",
			sizes[small], small, sizes[large], large, decoded)
	}
}

// BenchmarkInstall times one single-step install on an in-memory node, the
// node-side cost of a Grow: decode, digest, ledger scan, publication and
// grace period.
func BenchmarkInstall(b *testing.B) {
	for _, blocks := range []int{256, 4096} {
		b.Run(fmt.Sprint(blocks), func(b *testing.B) {
			install := installLoop(b, blocks)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				install()
			}
		})
	}
}

// TestAbortFreesOnlyAddedBlocks: an abort frees the local blocks its
// install added and no block the rollback table still references — also
// one the aborted table moved past the point where the two tables diverge.
func TestAbortFreesOnlyAddedBlocks(t *testing.T) {
	n := memArrayNode(t)
	alloc := func(reqID, fence uint64) BlockRef {
		reply, err := n.handleAllocBlock(encodeU64Pair(reqID, fence))
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		return BlockRef{Node: 0, Seg: binary.BigEndian.Uint64(reply)}
	}
	a, b := alloc(1, 1), alloc(2, 1)
	rollback := []BlockRef{a, b}
	if _, err := n.handleInstall(installReq{Fence: 1, Epoch: 1, Table: rollback}.encode()); err != nil {
		t.Fatalf("install: %v", err)
	}
	c, d := alloc(3, 2), alloc(4, 2)
	aborted := []BlockRef{a, c, {Node: 1, Seg: 7}, b, d}
	if _, err := n.handleInstall(installReq{Fence: 2, Epoch: 2, Table: aborted}.encode()); err != nil {
		t.Fatalf("install: %v", err)
	}
	if _, err := n.handleAbort(installReq{Fence: 2, Epoch: 2, Table: rollback}.encode()); err != nil {
		t.Fatalf("abort: %v", err)
	}
	for _, ref := range rollback {
		if _, err := n.srv.Segment(ref.Seg); err != nil {
			t.Errorf("rollback block %d freed: %v", ref.Seg, err)
		}
	}
	for _, ref := range []BlockRef{c, d} {
		if _, err := n.srv.Segment(ref.Seg); err == nil {
			t.Errorf("added block %d not freed", ref.Seg)
		}
	}
	if got := n.localBlocks.Load(); got != 2 {
		t.Errorf("local blocks = %d, want 2", got)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.allocs) != 0 {
		t.Errorf("alloc ledger holds %d rows after the abort", len(n.allocs))
	}
}
