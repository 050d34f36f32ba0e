package dist

import (
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"rcuarray/internal/region"
)

func TestConfigureCodec(t *testing.T) {
	in := configureReq{NodeID: 3, BlockSize: 64, Addrs: []string{"a:1", "b:2", "", "d:4"}}
	out, err := decodeConfigure(in.encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.NodeID != in.NodeID || out.BlockSize != in.BlockSize || len(out.Addrs) != 4 {
		t.Fatalf("round trip = %+v", out)
	}
	for i := range in.Addrs {
		if out.Addrs[i] != in.Addrs[i] {
			t.Fatalf("addr %d = %q", i, out.Addrs[i])
		}
	}
}

func TestConfigureCodecRejectsTruncated(t *testing.T) {
	full := configureReq{NodeID: 1, BlockSize: 8, Addrs: []string{"abc"}}.encode()
	for cut := 1; cut < len(full); cut++ {
		if _, err := decodeConfigure(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Absurd peer count rejected before allocation.
	bad := configureReq{NodeID: 1, BlockSize: 8}.encode()
	bad[8], bad[9], bad[10], bad[11] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := decodeConfigure(bad); err == nil || !strings.Contains(err.Error(), "peer count") {
		t.Fatalf("absurd peer count: %v", err)
	}
}

func TestTableCodec(t *testing.T) {
	in := []BlockRef{{Node: 0, Seg: 9}, {Node: 7, Seg: 1 << 40}}
	out, err := decodeTable(encodeTable(in))
	if err != nil || len(out) != 2 || out[1] != in[1] {
		t.Fatalf("round trip = %+v, %v", out, err)
	}
	empty, err := decodeTable(encodeTable(nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty table = %+v, %v", empty, err)
	}
	if _, err := decodeTable([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Fatal("absurd table size accepted")
	}
	if _, err := decodeTable(encodeTable(in)[:7]); err == nil {
		t.Fatal("truncated table accepted")
	}
}

// TestInstallFrameBytes pins the install frame of a two-step region plan:
// each step travels as two big-endian u32s after the table, so frames stay
// byte-identical whatever type the plan has in memory.
func TestInstallFrameBytes(t *testing.T) {
	q := installReq{Fence: 7, Epoch: 3,
		Table:   []BlockRef{{Node: 0, Seg: 1}, {Node: 1, Seg: 2}, {Node: 0, Seg: 3}},
		Regions: region.Plan(1, 3, 2),
	}
	const want = "0000000000000007" + "0000000000000003" + // fence, epoch
		"00000003" + "00000000" + "0000000000000001" + "00000001" + "0000000000000002" + "00000000" + "0000000000000003" + // table
		"00000002" + "00000001" + "00000002" + "00000002" + "00000003" // regions [1,2) [2,3)
	frame := q.encode()
	if got := hex.EncodeToString(frame); got != want {
		t.Fatalf("install frame\n got %s\nwant %s", got, want)
	}
	out, err := decodeInstall(frame)
	if err != nil || !reflect.DeepEqual(out, q) {
		t.Fatalf("round trip = %+v, %v", out, err)
	}
}

func TestWorkloadCodecs(t *testing.T) {
	in := WorkloadReq{Update: true, Pattern: 2, Tasks: 5, OpsPerTask: 1 << 33, Seed: 99}
	out, err := decodeWorkload(in.encode())
	if err != nil || out != in {
		t.Fatalf("req round trip = %+v, %v", out, err)
	}
	in.Update = false
	if out, _ := decodeWorkload(in.encode()); out.Update {
		t.Fatal("Update=false did not survive")
	}
	if _, err := decodeWorkload([]byte{1}); err == nil {
		t.Fatal("truncated workload accepted")
	}

	resp := WorkloadResp{Ops: 10, Nanos: 20, RemoteOps: 3}
	got, err := decodeWorkloadResp(resp.encode())
	if err != nil || got != resp {
		t.Fatalf("resp round trip = %+v, %v", got, err)
	}
	if _, err := decodeWorkloadResp([]byte{1, 2}); err == nil {
		t.Fatal("truncated resp accepted")
	}
}

func TestStatsCodec(t *testing.T) {
	in := NodeStats{Installs: 1, Synchronize: 2, Retries: 3, LocalBlocks: 4}
	out, err := decodeStats(in.encode())
	if err != nil || out != in {
		t.Fatalf("round trip = %+v, %v", out, err)
	}
	if _, err := decodeStats(nil); err == nil {
		t.Fatal("empty stats accepted")
	}
}

// Property: every codec round-trips arbitrary values.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(node uint32, seg uint64, update bool, pattern uint8, tasks uint32, ops, seed uint64) bool {
		tbl := []BlockRef{{Node: node, Seg: seg}}
		got, err := decodeTable(encodeTable(tbl))
		if err != nil || got[0] != tbl[0] {
			return false
		}
		q := WorkloadReq{Update: update, Pattern: pattern, Tasks: tasks, OpsPerTask: ops, Seed: seed}
		gq, err := decodeWorkload(q.encode())
		return err == nil && gq == q
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRbufPoisoning(t *testing.T) {
	r := rbuf{b: []byte{1}}
	_ = r.u32() // fails
	if r.err == nil {
		t.Fatal("short u32 did not poison")
	}
	// Later reads keep failing without panicking.
	_ = r.u8()
	_ = r.u64()
	_ = r.str()
	if r.err == nil {
		t.Fatal("poison cleared")
	}
}

func TestDriverBlockSizeAccessor(t *testing.T) {
	d := newTestCluster(t, 1, 32)
	if d.BlockSize() != 32 {
		t.Fatalf("BlockSize = %d", d.BlockSize())
	}
	if _, err := d.NodeLen(0); err != nil {
		t.Fatalf("NodeLen on empty array: %v", err)
	}
}
