// Command rcubench regenerates the paper's evaluation figures.
//
// Each -experiment value corresponds to one figure of "RCUArray: An RCU-like
// Parallel-Safe Distributed Resizable Array" (Jenkins, IPDPSW 2018):
//
//	fig2a  random indexing, 1024 ops/task, all four arrays
//	fig2b  sequential indexing, 1024 ops/task, all four arrays
//	fig2c  random indexing, many ops/task (SyncArray excluded)
//	fig2d  sequential indexing, many ops/task (SyncArray excluded)
//	fig3   1024-element resizes from zero capacity
//	fig4    QSBR checkpoint frequency sweep at one locale, EBR baseline
//	rw      extra ablation: RWLockArray vs the paper's four arrays
//	zipf    extra ablation: Zipfian skew concentrates traffic on few blocks
//	latency extra: read-latency percentiles under a continuous resize storm
//	all     everything above
//
// The defaults are scaled to a laptop-class host; raise -ops and -locales to
// approach the paper's parameters (32 nodes x 44 tasks x 1M ops). Output is
// an aligned table per figure, or CSV with -csv.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"rcuarray/internal/harness"
	"rcuarray/internal/workload"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig2a|fig2b|fig2c|fig2d|fig3|fig4|rw|zipf|latency|all")
		localesArg = flag.String("locales", "1,2,4,8", "comma-separated locale counts to sweep")
		tasks      = flag.Int("tasks", 4, "tasks per locale (paper: 44)")
		ops        = flag.Int("ops", 1<<15, "ops per task for the large runs (paper: 1M)")
		smallOps   = flag.Int("small-ops", 1024, "ops per task for fig2a/fig2b (paper: 1024)")
		resizes    = flag.Int("resizes", 128, "number of resizes for fig3 (paper: 1024)")
		increment  = flag.Int("increment", 1024, "elements per resize for fig3 (paper: 1024)")
		blockSize  = flag.Int("block", 1024, "RCUArray block size in elements")
		capacity   = flag.Int("capacity", 1<<16, "array capacity for indexing runs")
		latency    = flag.Duration("latency", 500*time.Nanosecond, "one-way remote op latency")
		seed       = flag.Uint64("seed", 0xC0DE, "workload seed")
		reps       = flag.Int("reps", 3, "repetitions per point (best kept)")
		csv        = flag.Bool("csv", false, "emit CSV instead of tables")
	)
	flag.Parse()

	locales, err := parseLocales(*localesArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcubench:", err)
		os.Exit(2)
	}

	indexing := func(kinds []harness.Kind, pattern workload.Pattern, opsPerTask int) harness.IndexingConfig {
		return harness.IndexingConfig{
			Kinds:          kinds,
			Locales:        locales,
			TasksPerLocale: *tasks,
			OpsPerTask:     opsPerTask,
			Capacity:       *capacity,
			BlockSize:      *blockSize,
			Pattern:        pattern,
			RemoteLatency:  *latency,
			Seed:           *seed,
			Repetitions:    *reps,
		}
	}
	allFour := []harness.Kind{harness.KindEBR, harness.KindQSBR, harness.KindChapel, harness.KindSync}
	noSync := []harness.Kind{harness.KindEBR, harness.KindQSBR, harness.KindChapel}

	experiments := map[string]func() harness.Result{
		"fig2a": func() harness.Result {
			r := harness.RunIndexing(indexing(allFour, workload.Random, *smallOps))
			r.Title = "Figure 2a: Random Indexing (1024 ops/task)"
			return r
		},
		"fig2b": func() harness.Result {
			r := harness.RunIndexing(indexing(allFour, workload.Sequential, *smallOps))
			r.Title = "Figure 2b: Sequential Indexing (1024 ops/task)"
			return r
		},
		"fig2c": func() harness.Result {
			r := harness.RunIndexing(indexing(noSync, workload.Random, *ops))
			r.Title = fmt.Sprintf("Figure 2c: Random Indexing (%d ops/task)", *ops)
			return r
		},
		"fig2d": func() harness.Result {
			r := harness.RunIndexing(indexing(noSync, workload.Sequential, *ops))
			r.Title = fmt.Sprintf("Figure 2d: Sequential Indexing (%d ops/task)", *ops)
			return r
		},
		"fig3": func() harness.Result {
			r := harness.RunResize(harness.ResizeConfig{
				Kinds:         noSync,
				Locales:       locales,
				Increment:     *increment,
				Resizes:       *resizes,
				BlockSize:     *blockSize,
				RemoteLatency: *latency,
				Repetitions:   *reps,
			})
			r.Title = fmt.Sprintf("Figure 3: Resize (%d increments, %d times)", *increment, *resizes)
			return r
		},
		"fig4": func() harness.Result {
			r := harness.RunCheckpoint(harness.CheckpointConfig{
				TasksPerLocale:     *tasks,
				OpsPerTask:         *ops,
				Capacity:           *capacity,
				BlockSize:          *blockSize,
				Frequencies:        []int{1, 4, 16, 64, 256, 1024, 0},
				IncludeEBRBaseline: true,
				RemoteLatency:      *latency,
				Seed:               *seed,
				Repetitions:        *reps,
			})
			r.Title = "Figure 4: QSBR checkpoint overhead (1 locale)"
			return r
		},
		"rw": func() harness.Result {
			kinds := append(append([]harness.Kind{}, allFour...), harness.KindRW)
			r := harness.RunIndexing(indexing(kinds, workload.Random, *smallOps))
			r.Title = "Ablation: RWLockArray vs paper arrays (random, 1024 ops/task)"
			return r
		},
		"zipf": func() harness.Result {
			r := harness.RunIndexing(indexing(noSync, workload.Zipfian, *ops))
			r.Title = fmt.Sprintf("Ablation: Zipfian skewed indexing (%d ops/task)", *ops)
			return r
		},
	}

	// The latency experiment has its own result shape, handled separately.
	runLatency := func() {
		res := harness.RunLatencyUnderResize(harness.LatencyConfig{
			Kinds:          []harness.Kind{harness.KindEBR, harness.KindQSBR, harness.KindSync, harness.KindRW},
			Locales:        locales[len(locales)-1],
			TasksPerLocale: *tasks,
			OpsPerTask:     *ops,
			Capacity:       *capacity,
			BlockSize:      *blockSize,
			RemoteLatency:  *latency,
			Seed:           *seed,
		})
		res.Format(os.Stdout)
		fmt.Println()
	}

	order := []string{"fig2a", "fig2b", "fig2c", "fig2d", "fig3", "fig4", "rw", "zipf"}
	var toRun []string
	switch {
	case *experiment == "all":
		toRun = order
	case *experiment == "latency":
		runLatency()
		return
	default:
		if _, ok := experiments[*experiment]; !ok {
			fmt.Fprintf(os.Stderr, "rcubench: unknown experiment %q (want one of %s, latency, all)\n",
				*experiment, strings.Join(order, ", "))
			os.Exit(2)
		}
		toRun = []string{*experiment}
	}

	for _, name := range toRun {
		start := time.Now()
		res := experiments[name]()
		if *csv {
			res.FormatCSV(os.Stdout)
		} else {
			res.Format(os.Stdout)
			fmt.Printf("(completed in %v)\n", time.Since(start).Round(time.Millisecond))
		}
		fmt.Println()
	}
	if *experiment == "all" {
		runLatency()
	}
}

func parseLocales(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid locale count %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}
