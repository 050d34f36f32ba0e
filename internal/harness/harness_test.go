package harness

import (
	"strings"
	"testing"
	"time"

	"rcuarray/internal/locale"
	"rcuarray/internal/workload"
)

func TestKindStringsAndParse(t *testing.T) {
	for _, k := range []Kind{KindEBR, KindQSBR, KindChapel, KindSync, KindRW} {
		parsed, err := ParseKind(k.String())
		if err != nil || parsed != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), parsed, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("ParseKind accepted bogus label")
	}
	if !KindQSBR.IsQSBR() || KindEBR.IsQSBR() {
		t.Fatal("IsQSBR misclassifies")
	}
}

func TestBuildTargetAllKinds(t *testing.T) {
	c := locale.NewCluster(locale.Config{Locales: 2, WorkersPerLocale: 2})
	defer c.Shutdown()
	c.Run(func(task *locale.Task) {
		for _, k := range []Kind{KindEBR, KindQSBR, KindChapel, KindSync, KindRW} {
			tgt := BuildTarget(task, k, 8, 16)
			if tgt.Name() != k.String() {
				t.Errorf("Name = %q, want %q", tgt.Name(), k.String())
			}
			if got := tgt.Len(task); got != 16 {
				t.Errorf("%v Len = %d, want 16", k, got)
			}
			tgt.Store(task, 3, 99)
			if got := tgt.Load(task, 3); got != 99 {
				t.Errorf("%v round trip = %d", k, got)
			}
			tgt.Grow(task, 8)
			if got := tgt.Len(task); got != 24 {
				t.Errorf("%v Len after Grow = %d, want 24", k, got)
			}
		}
	})
}

func tinyIndexing(pattern workload.Pattern) IndexingConfig {
	return IndexingConfig{
		Kinds:          []Kind{KindQSBR, KindChapel},
		Locales:        []int{1, 2},
		TasksPerLocale: 2,
		OpsPerTask:     256,
		Capacity:       256,
		BlockSize:      32,
		Pattern:        pattern,
		Seed:           7,
		Disjoint:       true, // race-detector-clean: one subrange per task
	}
}

func TestRunIndexingProducesAllPoints(t *testing.T) {
	res := RunIndexing(tinyIndexing(workload.Random))
	if len(res.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != 2 {
			t.Fatalf("%s points = %d, want 2", s.Label, len(s.Points))
		}
		for _, p := range s.Points {
			if p.OpsPerSec <= 0 {
				t.Fatalf("%s at %d locales: %.1f ops/s", s.Label, p.X, p.OpsPerSec)
			}
		}
	}
}

func TestRunIndexingSequential(t *testing.T) {
	res := RunIndexing(tinyIndexing(workload.Sequential))
	if got := res.SeriesByLabel("QSBRArray"); got == nil || got.At(1) <= 0 {
		t.Fatal("sequential indexing produced no QSBR throughput")
	}
}

func TestRunIndexingWithCheckpoints(t *testing.T) {
	cfg := tinyIndexing(workload.Sequential)
	cfg.Kinds = []Kind{KindQSBR}
	cfg.CheckpointEvery = 16
	res := RunIndexing(cfg)
	if res.Series[0].At(1) <= 0 {
		t.Fatal("checkpointing run produced no throughput")
	}
}

func TestRunResize(t *testing.T) {
	res := RunResize(ResizeConfig{
		Kinds:     []Kind{KindEBR, KindQSBR, KindChapel},
		Locales:   []int{1, 2},
		Increment: 64,
		Resizes:   16,
		BlockSize: 64,
	})
	if len(res.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(res.Series))
	}
	for _, s := range res.Series {
		for _, p := range s.Points {
			if p.OpsPerSec <= 0 {
				t.Fatalf("%s at %d locales: %.1f resizes/s", s.Label, p.X, p.OpsPerSec)
			}
		}
	}
}

func TestRunCheckpoint(t *testing.T) {
	res := RunCheckpoint(CheckpointConfig{
		TasksPerLocale:     2,
		OpsPerTask:         512,
		Capacity:           256,
		BlockSize:          32,
		Frequencies:        []int{1, 16, 0},
		IncludeEBRBaseline: true,
		Seed:               3,
		Disjoint:           true,
	})
	qs := res.SeriesByLabel("QSBR")
	es := res.SeriesByLabel("EBR")
	if qs == nil || es == nil {
		t.Fatal("missing series")
	}
	if len(qs.Points) != 3 {
		t.Fatalf("QSBR points = %d, want 3", len(qs.Points))
	}
	// Frequency 0 is plotted at x = OpsPerTask.
	if qs.At(512) <= 0 {
		t.Fatal("no-checkpoint point missing")
	}
	// The EBR baseline is a horizontal line.
	if es.At(1) != es.At(16) {
		t.Fatal("EBR baseline not constant")
	}
}

func TestResultFormatting(t *testing.T) {
	res := Result{
		Title:  "T",
		XLabel: "locales",
		YLabel: "ops/s",
		Series: []Series{
			{Label: "A", Points: []Point{{1, 1500}, {2, 3e6}}},
			{Label: "B", Points: []Point{{1, 2.5e9}}},
		},
	}
	var sb strings.Builder
	res.Format(&sb)
	out := sb.String()
	for _, want := range []string{"# T", "locales", "A", "B", "1.50k", "3.00M", "2.50G", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	res.FormatCSV(&sb)
	csv := sb.String()
	if !strings.HasPrefix(csv, "locales,A,B\n") {
		t.Errorf("CSV header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "1,1500.0,2500000000.0") {
		t.Errorf("CSV row wrong:\n%s", csv)
	}
}

func TestResultRatio(t *testing.T) {
	res := Result{Series: []Series{
		{Label: "A", Points: []Point{{1, 400}}},
		{Label: "B", Points: []Point{{1, 100}}},
	}}
	if got := res.Ratio("A", "B", 1); got != 4 {
		t.Fatalf("Ratio = %v, want 4", got)
	}
	if got := res.Ratio("A", "C", 1); got != 0 {
		t.Fatalf("Ratio with missing series = %v, want 0", got)
	}
	if got := res.Ratio("B", "A", 2); got != 0 {
		t.Fatalf("Ratio at missing x = %v, want 0", got)
	}
}

func TestRunLatencyUnderResize(t *testing.T) {
	res := RunLatencyUnderResize(LatencyConfig{
		Kinds:          []Kind{KindQSBR, KindSync},
		Locales:        2,
		TasksPerLocale: 2,
		OpsPerTask:     2048,
		Capacity:       1024,
		BlockSize:      128,
		SampleEvery:    8,
		GrowEvery:      time.Millisecond,
		Seed:           5,
	})
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		// 2 locales x 2 tasks x 2048 ops, one sample in 8.
		if len(row.Samples) != 2*2*2048/8 {
			t.Fatalf("%v: %d latency samples, want %d", row.Kind, len(row.Samples), 2*2*2048/8)
		}
		p50, p99, max := row.Quantile(0.50), row.Quantile(0.99), row.Quantile(1)
		if p50 > p99 || p99 > max || max != time.Duration(row.Samples[len(row.Samples)-1]) {
			t.Fatalf("%v: p50 %v, p99 %v, max %v are not ordered exact samples", row.Kind, p50, p99, max)
		}
		if row.Resizes == 0 {
			t.Fatalf("%v: grower made no progress", row.Kind)
		}
		if row.OpsPerSec <= 0 {
			t.Fatalf("%v: no throughput", row.Kind)
		}
	}
	var sb strings.Builder
	res.Format(&sb)
	if !strings.Contains(sb.String(), "p99") || !strings.Contains(sb.String(), "QSBRArray") {
		t.Fatalf("Format output missing columns:\n%s", sb.String())
	}
}

// Quantile is exact nearest rank over the sorted samples, not a bucket edge.
func TestLatencyRowQuantile(t *testing.T) {
	if q := (LatencyRow{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty row p50 = %v, want 0", q)
	}
	row := LatencyRow{Samples: make([]int64, 100)}
	for i := range row.Samples {
		row.Samples[i] = int64(i+1) * 10
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.001, 10}, {0.50, 500}, {0.90, 900}, {0.99, 990}, {0.999, 1000}, {1, 1000}} {
		if got := row.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestLatencyExcludesChapel(t *testing.T) {
	res := RunLatencyUnderResize(LatencyConfig{
		Kinds:          []Kind{KindChapel, KindEBR},
		Locales:        1,
		TasksPerLocale: 1,
		OpsPerTask:     256,
		Capacity:       256,
		BlockSize:      64,
		GrowEvery:      time.Millisecond,
	})
	if len(res.Rows) != 1 || res.Rows[0].Kind != KindEBR {
		t.Fatalf("ChapelArray not excluded: %+v", res.Rows)
	}
}

func TestKindEBRFlat(t *testing.T) {
	parsed, err := ParseKind("EBRArray-flat")
	if err != nil || parsed != KindEBRFlat {
		t.Fatalf("ParseKind(EBRArray-flat) = %v, %v", parsed, err)
	}
	if KindEBRFlat.IsQSBR() {
		t.Fatal("EBRArray-flat misclassified as QSBR")
	}
	c := locale.NewCluster(locale.Config{Locales: 2, WorkersPerLocale: 2})
	defer c.Shutdown()
	c.Run(func(task *locale.Task) {
		tgt := BuildTarget(task, KindEBRFlat, 8, 16)
		if got := tgt.Name(); got != "EBRArray-flat" {
			t.Errorf("Name = %q, want EBRArray-flat", got)
		}
		tgt.Store(task, 5, 42)
		if got := tgt.Load(task, 5); got != 42 {
			t.Errorf("round trip = %d", got)
		}
		tgt.Grow(task, 8)
		if got := tgt.Len(task); got != 24 {
			t.Errorf("Len after Grow = %d, want 24", got)
		}
	})
}

// Every kind serves a read session: core kinds a pinned one with a live
// cache, baselines the per-op fallback with zero cache stats.
func TestOpenReadSessionAllKinds(t *testing.T) {
	c := locale.NewCluster(locale.Config{Locales: 1, WorkersPerLocale: 2})
	defer c.Shutdown()
	c.Run(func(task *locale.Task) {
		for _, k := range []Kind{KindEBR, KindQSBR, KindEBRFlat, KindChapel, KindSync, KindRW} {
			tgt := BuildTarget(task, k, 8, 32)
			tgt.Store(task, 9, 77)
			sess := OpenReadSession(tgt, task)
			for i := 0; i < 4; i++ {
				if got := sess.Load(9); got != 77 {
					t.Errorf("%v session Load = %d, want 77", k, got)
				}
			}
			hits, misses := sess.CacheStats()
			switch k {
			case KindEBR, KindQSBR, KindEBRFlat:
				if hits != 3 || misses != 1 {
					t.Errorf("%v cache stats = %d/%d, want 3 hits / 1 miss", k, hits, misses)
				}
			default:
				if hits != 0 || misses != 0 {
					t.Errorf("%v fallback session reported cache stats %d/%d", k, hits, misses)
				}
			}
			sess.Close()
			// Core sessions released their pin: a resize must proceed.
			tgt.Grow(task, 8)
		}
	})
}

func TestRunIndexingPinnedAccess(t *testing.T) {
	cfg := tinyIndexing(workload.Sequential)
	cfg.Kinds = []Kind{KindEBR, KindEBRFlat, KindQSBR}
	cfg.Access = AccessLoadPinned
	res := RunIndexing(cfg)
	if len(res.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(res.Series))
	}
	for _, s := range res.Series {
		for _, p := range s.Points {
			if p.OpsPerSec <= 0 {
				t.Fatalf("%s at %d locales: %.1f ops/s", s.Label, p.X, p.OpsPerSec)
			}
		}
	}
}
