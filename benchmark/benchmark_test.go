package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		p    float64
		ok   bool
		want int64
	}{
		{0, 50, false, 0},
		{19, 50, false, 0}, // rank 10, 9 beyond
		{20, 50, true, 10}, // rank 10, 10 beyond
		{999, 99, false, 0},
		{1000, 99, true, 990},
		{1000, 99.9, false, 0},
		{10000, 99.9, true, 9990},
	}
	for _, c := range cases {
		got, ok := percentile(mk(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, p=%g) = %d, %v; want %d, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 {
		t.Fatalf("summary = %+v", s)
	}
}

// seqHash hashes the first n (index, write) pairs of one client's stream.
func seqHash(seed uint64, client, n int) uint64 {
	g := newOpGen(seed, client, numClients)
	h := fnv.New64a()
	var buf [9]byte
	for i := 0; i < n; i++ {
		idx := g.index(localElems)
		for b := 0; b < 8; b++ {
			buf[b] = byte(idx >> (8 * b))
		}
		buf[8] = 0
		if g.write() {
			buf[8] = 1
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

func TestSeedDeterminesSequence(t *testing.T) {
	const n = 4096
	if seqHash(7, 0, n) != seqHash(7, 0, n) {
		t.Fatal("the same seed and client gave two different sequences")
	}
	if seqHash(7, 0, n) == seqHash(8, 0, n) {
		t.Fatal("two seeds gave the same sequence")
	}
	if seqHash(7, 0, n) == seqHash(7, 1, n) {
		t.Fatal("two clients of one seed gave the same sequence")
	}
}

func TestClientsShareBlocksButNoElement(t *testing.T) {
	owner := map[int]int{}
	blocks := [numClients]map[int]bool{}
	for c := 0; c < numClients; c++ {
		blocks[c] = map[int]bool{}
		g := newOpGen(3, c, numClients)
		for i := 0; i < 1<<16; i++ {
			idx := g.index(localElems)
			if idx < 0 || idx >= localElems {
				t.Fatalf("index %d out of range", idx)
			}
			if prev, ok := owner[idx]; ok && prev != c {
				t.Fatalf("element %d is touched by clients %d and %d", idx, prev, c)
			}
			owner[idx] = c
			blocks[c][idx/blockSize] = true
		}
		if len(blocks[c]) != localElems/blockSize {
			t.Fatalf("client %d touched %d of %d blocks", c, len(blocks[c]), localElems/blockSize)
		}
	}
}

// smokeEnv is a round small enough for tier-1: a 50 ms window, 50 grows,
// one cluster of 3 restart cycles.
func smokeEnv(t *testing.T) *env {
	return &env{
		seed: 11, clients: numClients,
		warm: 10 * time.Millisecond, window: 50 * time.Millisecond,
		grows: 50, groups: 1, cycles: 3,
		expect: val, tmpRoot: t.TempDir(),
	}
}

func TestSmokeEveryWorkloadPassesItsChecks(t *testing.T) {
	for _, w := range workloadSpecs {
		t.Run(w.Name, func(t *testing.T) {
			out, err := runRound(workloadFuncs[w.Name], smokeEnv(t))
			if err != nil {
				t.Fatal(err)
			}
			if out.Failed != 0 {
				t.Fatalf("failed = %d of %d attempted: %v", out.Failed, out.Attempted, out.Notes)
			}
			if out.Attempted == 0 || out.Ops == 0 || out.OpsPerS <= 0 || len(out.Lat) == 0 {
				t.Fatalf("the round measured nothing: %+v", out)
			}
			if len(out.Setups) < minSetups {
				t.Fatalf("%d set-ups timed, want at least %d", len(out.Setups), minSetups)
			}
		})
	}
}

// The negative test: with the expected-value function perturbed every read
// is "wrong", so every workload's checks must report failures. Without it a
// benchmark whose checks compare nothing would pass the smoke test too.
func TestPerturbedExpectationFailsEveryWorkload(t *testing.T) {
	for _, w := range workloadSpecs {
		t.Run(w.Name, func(t *testing.T) {
			e := smokeEnv(t)
			e.expect = func(k int) int64 { return val(k) + 1 }
			out, err := workloadFuncs[w.Name](e)
			if err != nil {
				t.Fatal(err)
			}
			if out.Failed == 0 {
				t.Fatalf("no check failed although every expected value is wrong (attempted %d)", out.Attempted)
			}
			if got := aggregate(w.Name, []roundOut{out}); got.FailedFrac <= 0 {
				t.Fatalf("failed_frac = %g, want > 0", got.FailedFrac)
			}
		})
	}
}

func TestTracedRoundParentsEveryOpSpan(t *testing.T) {
	rec := newSpanRec()
	main := rec.track()
	e := smokeEnv(t)
	e.clients, e.warm, e.window, e.calls = 1, 0, 0, 512
	e.spans, e.roundID = rec, rec.newID()
	start := time.Now()
	out, err := workloadFuncs["index_ebr"](e)
	if err != nil || out.Failed != 0 {
		t.Fatalf("traced round: err=%v failed=%d", err, out.Failed)
	}
	if want := int64(512*chunkOps) + 2; out.Attempted != want {
		t.Fatalf("a fixed-count round attempted %d operations, want %d", out.Attempted, want)
	}
	main.addID(e.roundID, "round:index_ebr", 0, start, time.Now(), 0)
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := rec.writeTrace(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace.json is not valid JSON: %v", err)
	}
	ops := 0
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 {
			t.Fatalf("bad event %+v", ev)
		}
		if ev.Name == "index.chunk" {
			ops++
			if parent := int64(ev.Args["parent"].(float64)); parent != e.roundID {
				t.Fatalf("op span %v has parent %d, want the round span %d", ev.Args["id"], parent, e.roundID)
			}
		}
	}
	if want := 512 / spanEvery; ops != want {
		t.Fatalf("%d op spans, want one per %d calls = %d", ops, spanEvery, want)
	}
}

func sampleResult() *result {
	rounds := []roundOut{}
	for r := 0; r < numRounds; r++ {
		lat := make([]int64, 2000)
		for i := range lat {
			lat[i] = int64(1000 + i)
		}
		rounds = append(rounds, roundOut{
			Setups: []float64{0.5, 0.6}, Elapsed: time.Second, Ops: 1000, OpsPerS: 1000 + float64(r),
			Attempted: 1002, Lat: lat, MemSys: 64 << 20, Extra: map[string]float64{"grows": 7},
		})
	}
	res := &result{Schema: resultSchema, Seed: 1, Seconds: 12, Rounds: numRounds, WindowS: 2.4, Clients: numClients,
		Host: hostInfo{NProc: 2, GoVersion: "go1.x"}, Calibration: calibration{TimeNowNs: 40, EmptyLoopNs: 1}}
	res.Workloads = append(res.Workloads, aggregate("serve_point", rounds))
	return res
}

func TestResultRoundTrip(t *testing.T) {
	res := sampleResult()
	path := filepath.Join(t.TempDir(), "out", "result.json")
	if err := res.writeFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Fatalf("round trip changed the result:\nwrote %+v\nread  %+v", res, back)
	}
	if m := back.workload("serve_point").Metrics["op_p99_us"]; m.Median != 2.979 || len(m.Samples) != numRounds || m.Samples[0] != 2000 {
		t.Fatalf("op_p99_us = %+v", m)
	}
	line, err := back.contractLine("serve_point")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &c); err != nil {
		t.Fatal(err)
	}
	if !c.Correct || c.Attempted != 1002*numRounds || c.Failed != 0 || len(c.Metrics) != len(endToEnd) {
		t.Fatalf("contract line %s", line)
	}
	for _, m := range endToEnd {
		if got := c.Metrics[m.Name]; got.Unit != m.Unit || got.Value <= 0 {
			t.Fatalf("contract line lacks %s: %s", m.Name, line)
		}
	}
	if err := os.WriteFile(path, []byte(`{"schema":"other"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readResult(path); err == nil {
		t.Fatal("a file of another schema was accepted")
	}
}

func TestShortRoundsPoolTheTail(t *testing.T) {
	var rounds []roundOut
	for r := 0; r < numRounds; r++ {
		lat := make([]int64, 240) // too few for a p99 of its own
		for i := range lat {
			lat[i] = int64(1000 * (r*240 + i + 1))
		}
		rounds = append(rounds, roundOut{Setups: []float64{0.1}, Ops: 240, OpsPerS: 300, Attempted: 240, Lat: lat, Extra: map[string]float64{}})
	}
	w := aggregate("recover", rounds)
	m := w.Metrics["op_p99_us"]
	if !m.Pooled || m.Missing != 0 || m.Median != 1188 || m.Samples[0] != 1200 {
		t.Fatalf("pooled op_p99_us = %+v, want the 1188th of 1200 samples", m)
	}
	if p50 := w.Metrics["op_p50_us"]; p50.Pooled || len(p50.Values) != numRounds {
		t.Fatalf("op_p50_us = %+v, want one value per round", p50)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(opsRounds []float64, p50 float64, failed int64) *result {
		m := map[string]metricResult{}
		for _, s := range endToEnd {
			rounds := []float64{p50, p50, p50, p50, p50}
			if s.Name == "ops_per_s" {
				rounds = opsRounds
			}
			m[s.Name] = metricResult{Unit: s.Unit, Better: s.Better, Bound: s.Bound, summary: summarize(rounds), Values: rounds}
		}
		w := workloadResult{Name: "serve_point", Metrics: m, Attempted: 1000, Failed: failed, FailedFrac: float64(failed) / 1000}
		return &result{Schema: resultSchema, Workloads: []workloadResult{w}}
	}
	verdict := func(a, b *result, metric string) string {
		rows, _ := compare(a, b)
		for _, r := range rows {
			if r.Metric == metric {
				return r.Verdict
			}
		}
		t.Fatalf("no row for %s", metric)
		return ""
	}
	// Every metric has a bound of its own; the cases are sized from it.
	opsBound, p50Bound := endToEnd[0].Bound, endToEnd[1].Bound
	scaled := func(f float64) []float64 {
		return []float64{1000 * f, 1001 * f, 1002 * f, 1003 * f, 1004 * f}
	}
	steady := scaled(1)
	base := mk(steady, 20, 0)

	if v := verdict(base, mk(scaled(1-opsBound/2), 20*(1+p50Bound/2), 0), "ops_per_s"); v != verdictOK {
		t.Errorf("half the bound slower: %s, want ok", v)
	}
	if v := verdict(base, mk(scaled(1-1.5*opsBound), 20, 0), "ops_per_s"); v != verdictWorse {
		t.Errorf("1.5 bounds slower, both runs tight: %s, want worse", v)
	}
	if v := verdict(base, mk(steady, 20*(1+1.5*p50Bound), 0), "op_p50_us"); v != verdictWorse {
		t.Errorf("1.5 bounds slower median latency: %s, want worse", v)
	}
	if v := verdict(base, mk(scaled(1.3), 20, 0), "ops_per_s"); v != verdictOK {
		t.Errorf("30%% faster: %s, want ok", v)
	}
	// Median 1.5 bounds down, but b's rounds are spread wider than the bound
	// and reach into a's range: the runs cannot tell the two apart.
	low := 1000 * (1 - 1.5*opsBound)
	if v := verdict(base, mk([]float64{low / 2, low / 1.5, low, 1002, 1100}, 20, 0), "ops_per_s"); v != verdictUnresolved {
		t.Errorf("noisy overlap: %s, want unresolved", v)
	}

	var buf bytes.Buffer
	rows, failedWorse := compare(base, mk(steady, 20, 0))
	if !printCompare(&buf, rows, failedWorse) || len(rows) != len(endToEnd) {
		t.Errorf("identical runs did not pass:\n%s", buf.String())
	}
	buf.Reset()
	rows, failedWorse = compare(base, mk(steady, 20, 3))
	if printCompare(&buf, rows, failedWorse) || !strings.Contains(buf.String(), "failed_frac is higher") {
		t.Errorf("a higher failed_frac passed:\n%s", buf.String())
	}
	buf.Reset()
	rows, failedWorse = compare(base, mk(scaled(1-1.5*opsBound), 20, 0))
	if printCompare(&buf, rows, failedWorse) {
		t.Errorf("a worse row passed:\n%s", buf.String())
	}
}

// BENCHMARK.json at the repository root repeats what spec.go defines; the
// driver reads the former, the program the latter.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", bj.Paths)
	}
	if bj.RunSeconds*1000 < numRounds*2000 {
		t.Errorf("run_seconds = %d leaves windows under 2 s", bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads, spec has %d", len(bj.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		if got := bj.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d = %+v, spec has %s: %s", i, got, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, spec has %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound == nil || *got.Bound != m.Bound {
			t.Errorf("end_to_end[%d] = %+v, spec has %+v", i, got, m)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, spec has %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := bj.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != nil {
			t.Errorf("per_layer[%d] = %+v, spec has %+v", i, got, m.metricSpec)
		}
	}
}
