package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeStriped(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a_total") != c {
		t.Fatal("get-or-create returned a different counter for the same name")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	s := r.StripedCounter("s_total", 8)
	for i := 0; i < 100; i++ {
		s.Inc(i)
	}
	if got := s.Sum(); got != 100 {
		t.Fatalf("striped sum = %d, want 100", got)
	}
}

func TestNilHandlesNoop(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var s *Striped
	var ring *Ring
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(10)
	s.Inc(0)
	ring.Begin(0)
	ring.End(0)
	ring.Instant(0, 1)
	if c.Load() != 0 || g.Load() != 0 || s.Sum() != 0 || h.Snap().Count != 0 {
		t.Fatal("nil handles must read as zero")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns")
	// 90 small observations, 10 large: p50 small, p99 large.
	for i := 0; i < 90; i++ {
		h.Observe(100) // bucket [64,128)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1 << 20)
	}
	s := h.Snap()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.SumNanos != 90*100+10*(1<<20) {
		t.Fatalf("sum = %d", s.SumNanos)
	}
	if s.MaxNanos != 1<<20 {
		t.Fatalf("max = %d", s.MaxNanos)
	}
	if s.P50 != 127 { // upper bound of [64,128)
		t.Fatalf("p50 = %d, want 127", s.P50)
	}
	if s.P99 != (1<<21)-1 {
		t.Fatalf("p99 = %d, want %d", s.P99, (1<<21)-1)
	}
	h.Observe(0) // zero clamps into bucket 0
	if h.Snap().Count != 101 {
		t.Fatal("zero observation not counted")
	}
}

func TestEnableGate(t *testing.T) {
	defer SetEnabled(false)
	SetEnabled(false)
	if On() {
		t.Fatal("On() true after SetEnabled(false)")
	}
	r := NewRegistry()
	ring := r.Tracer().Ring(0, 0)
	name := r.Tracer().Name("x")
	ring.Instant(name, 1)
	if got := len(r.Tracer().Events()); got != 0 {
		t.Fatalf("ring recorded %d events while disabled", got)
	}
	SetEnabled(true)
	ring.Instant(name, 1)
	if got := len(r.Tracer().Events()); got != 1 {
		t.Fatalf("ring recorded %d events while enabled, want 1", got)
	}
}

// TestStampGate pins the Stamp contract: a zero Stamp — the only one Start
// hands out while observability is off — records nothing through Since or
// Complete, even when the interval closes after SetEnabled(true), so a
// time-since-zero sample never lands in a histogram or a ring.
func TestStampGate(t *testing.T) {
	defer SetEnabled(false)
	cases := []struct {
		name         string
		onAtStart    bool
		onAtClose    bool
		wantRecorded uint64
	}{
		{"off", false, false, 0},
		{"off-then-on", false, true, 0},
		{"on", true, true, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			h := r.Histogram("h_ns")
			ring := r.Tracer().Ring(0, 0)
			name := r.Tracer().Name("x")
			SetEnabled(tc.onAtStart)
			s := Start()
			if (s == 0) == tc.onAtStart {
				t.Fatalf("Start() = %d with observability on=%v", s, tc.onAtStart)
			}
			SetEnabled(tc.onAtClose)
			h.Since(s)
			ring.Complete(name, s, 1)
			if got := h.Count(); got != tc.wantRecorded {
				t.Fatalf("Since recorded %d samples, want %d", got, tc.wantRecorded)
			}
			if got := uint64(len(r.Tracer().Events())); got != tc.wantRecorded {
				t.Fatalf("Complete recorded %d events, want %d", got, tc.wantRecorded)
			}
			if max := h.Snap().MaxNanos; max > uint64(time.Minute) {
				t.Fatalf("histogram max %d ns: a sample timed from the zero Stamp landed", max)
			}
		})
	}
}

// TestRegistryConcurrent hammers get-or-create plus metric writes from many
// goroutines while snapshots run: the -race suite for the registry.
func TestRegistryConcurrent(t *testing.T) {
	defer SetEnabled(false)
	SetEnabled(true)
	r := NewRegistry()
	const goroutines = 8
	const iters = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("c_total").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h_ns").Observe(int64(i))
				r.StripedCounter("s_total", 4).Inc(g)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			snap := r.Snapshot()
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
			_ = snap
		}
	}()
	wg.Wait()
	<-done
	snap := r.Snapshot()
	if snap.Counters["c_total"] != goroutines*iters {
		t.Fatalf("c_total = %d, want %d", snap.Counters["c_total"], goroutines*iters)
	}
	if snap.Counters["s_total"] != goroutines*iters {
		t.Fatalf("s_total = %d, want %d", snap.Counters["s_total"], goroutines*iters)
	}
	if snap.Histograms["h_ns"].Count != goroutines*iters {
		t.Fatalf("h_ns count = %d", snap.Histograms["h_ns"].Count)
	}
}

func TestGaugeFuncAndReset(t *testing.T) {
	r := NewRegistry()
	var backing int64 = 42
	r.GaugeFunc("view", func() int64 { return backing })
	if got := r.Snapshot().Gauges["view"]; got != 42 {
		t.Fatalf("gauge func = %d, want 42", got)
	}
	r.Counter("c_total").Add(9)
	r.Histogram("h_ns").Observe(5)
	r.Reset()
	snap := r.Snapshot()
	if snap.Counters["c_total"] != 0 || snap.Histograms["h_ns"].Count != 0 {
		t.Fatalf("Reset left values behind: %+v", snap)
	}
	if snap.Gauges["view"] != 42 {
		t.Fatal("Reset must not unregister gauge funcs")
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(`rpc_total{op="GET",peer="n1"}`).Add(3)
	r.Gauge("depth").Set(-2)
	r.Histogram(`lat_ns{op="PUT"}`).Observe(1000)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE rpc_total counter",
		`rpc_total{op="GET",peer="n1"} 3`,
		"# TYPE depth gauge",
		"depth -2",
		"# TYPE lat_ns summary",
		`lat_ns{op="PUT",quantile="0.5"}`,
		`lat_ns_sum{op="PUT"} 1000`,
		`lat_ns_count{op="PUT"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Inc()
	r.Histogram("h_ns").Observe(123)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if snap.Counters["c_total"] != 1 || snap.Histograms["h_ns"].Count != 1 {
		t.Fatalf("round-tripped snapshot wrong: %+v", snap)
	}
}
