package harness

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"time"

	"rcuarray/internal/comm"
	"rcuarray/internal/locale"
	"rcuarray/internal/workload"
)

// LatencyConfig parameterizes the tail-latency experiment: reader tasks
// sample per-operation latency while one structural writer resizes the
// array continuously. This extends the paper's evaluation (which reports
// only throughput): the reason to pay RCU's complexity is precisely that a
// resize does not stall readers, and that shows up in the tail, not the
// mean.
type LatencyConfig struct {
	Kinds          []Kind
	Locales        int
	TasksPerLocale int
	OpsPerTask     int
	Capacity       int
	BlockSize      int
	// SampleEvery measures one op out of this many (timing every op
	// would dominate the op itself). Default 16.
	SampleEvery   int
	GrowEvery     time.Duration // delay between grower resizes; default 500µs
	RemoteLatency time.Duration
	Seed          uint64
}

func (c LatencyConfig) withDefaults() LatencyConfig {
	if len(c.Kinds) == 0 {
		c.Kinds = []Kind{KindEBR, KindQSBR, KindSync, KindRW}
	}
	if c.Locales <= 0 {
		c.Locales = 2
	}
	if c.TasksPerLocale <= 0 {
		c.TasksPerLocale = 2
	}
	if c.OpsPerTask <= 0 {
		c.OpsPerTask = 1 << 14
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 1024
	}
	if c.Capacity <= 0 {
		c.Capacity = 16 * c.BlockSize
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 16
	}
	if c.GrowEvery <= 0 {
		c.GrowEvery = 500 * time.Microsecond
	}
	return c
}

// LatencyRow is one array's measured read-latency distribution under a
// concurrent resize storm.
type LatencyRow struct {
	Kind      Kind
	Samples   []int64 // every sampled read's latency in ns, ascending
	Resizes   int
	OpsPerSec float64
}

// Quantile returns the exact q-quantile (0 < q <= 1) of the sampled
// latencies by the nearest-rank method; 0 with no samples.
func (r LatencyRow) Quantile(q float64) time.Duration {
	n := len(r.Samples)
	if n == 0 {
		return 0
	}
	rank := min(max(int(math.Ceil(q*float64(n)-1e-9)), 1), n)
	return time.Duration(r.Samples[rank-1])
}

// LatencyResult holds one run of the tail-latency experiment.
type LatencyResult struct {
	Title string
	Rows  []LatencyRow
}

// Format writes the distribution table.
func (r LatencyResult) Format(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", r.Title)
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s %10s %9s\n",
		"array", "p50", "p90", "p99", "p99.9", "max", "resizes")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %10v %10v %10v %10v %10v %9d\n",
			row.Kind,
			row.Quantile(0.50), row.Quantile(0.90),
			row.Quantile(0.99), row.Quantile(0.999),
			row.Quantile(1), row.Resizes)
	}
	fmt.Fprintln(w, "(read latency while a concurrent writer resizes continuously)")
}

// RunLatencyUnderResize measures per-read latency percentiles for each kind
// while a dedicated task keeps growing the array. ChapelArray is excluded:
// resizing it concurrently with reads is unsafe by construction.
func RunLatencyUnderResize(cfg LatencyConfig) LatencyResult {
	cfg = cfg.withDefaults()
	res := LatencyResult{Title: fmt.Sprintf(
		"Read latency under resize (%d locales x %d tasks)", cfg.Locales, cfg.TasksPerLocale)}
	for _, k := range cfg.Kinds {
		if k == KindChapel {
			continue
		}
		res.Rows = append(res.Rows, runLatencyOnce(cfg, k))
	}
	return res
}

func runLatencyOnce(cfg LatencyConfig, k Kind) LatencyRow {
	c := locale.NewCluster(locale.Config{
		Locales:          cfg.Locales,
		WorkersPerLocale: cfg.TasksPerLocale + 1, // +1 keeps the grower from displacing readers
		Comm:             comm.Config{RemoteLatency: cfg.RemoteLatency},
	})
	defer c.Shutdown()

	row := LatencyRow{Kind: k}
	var mu sync.Mutex
	c.Run(func(task *locale.Task) {
		tgt := BuildTarget(task, k, cfg.BlockSize, cfg.Capacity)
		done := make(chan struct{})
		start := time.Now()

		// Grower: one dedicated goroutine on the driver's locale.
		growerDone := make(chan struct{})
		go func() {
			defer close(growerDone)
			c.Run(func(gt *locale.Task) {
				for {
					select {
					case <-done:
						return
					default:
					}
					tgt.Grow(gt, cfg.BlockSize)
					mu.Lock()
					row.Resizes++
					mu.Unlock()
					time.Sleep(cfg.GrowEvery)
				}
			})
		}()

		var totalOps int
		task.Coforall(func(sub *locale.Task) {
			sub.ForAllTasks(cfg.TasksPerLocale, func(tt *locale.Task, id int) {
				seed := cfg.Seed ^ uint64(tt.Here().ID())<<32 ^ uint64(id)
				stream := workload.NewIndexStream(workload.Random, seed, cfg.Capacity)
				samples := make([]int64, 0, (cfg.OpsPerTask+cfg.SampleEvery-1)/cfg.SampleEvery)
				for op := 0; op < cfg.OpsPerTask; op++ {
					idx := stream.Next()
					if op%cfg.SampleEvery == 0 {
						t0 := time.Now()
						_ = tgt.Load(tt, idx)
						samples = append(samples, int64(time.Since(t0)))
					} else {
						_ = tgt.Load(tt, idx)
					}
					if k.IsQSBR() && op%256 == 0 {
						tt.Checkpoint()
					}
				}
				mu.Lock()
				row.Samples = append(row.Samples, samples...)
				totalOps += cfg.OpsPerTask
				mu.Unlock()
			})
		})
		close(done)
		<-growerDone
		row.OpsPerSec = float64(totalOps) / time.Since(start).Seconds()
		slices.Sort(row.Samples)
	})
	return row
}
