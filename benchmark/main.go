// Command benchmark is the one benchmark every performance or simplicity
// claim on this repository is measured with: seven closed-loop workloads over
// the local array, the TCP serve path and crash recovery, four end-to-end
// metrics per workload, and a per-layer ledger from a separate traced pass.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"rcuarray/internal/obs"
)

type config struct {
	workloads []string
	seed      uint64
	seconds   float64
	trace     bool
	out       string
	traceOut  string
	tmpRoot   string
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "seed of the index and op-mix streams")
		seconds  = flag.Float64("seconds", 12, "measured seconds per workload, split over the rounds")
		trace    = flag.Int("trace", 0, "0: measure end-to-end metrics with observability off; 1: run the traced pass and the layer probes instead")
		out      = flag.String("out", "", "write the full result as JSON to this file")
		traceOut = flag.String("trace-out", filepath.Join("benchmark", "out", "trace.json"), "where -trace 1 writes the Chrome trace")
		tmp      = flag.String("tmp", filepath.Join(".bench_build", "tmp"), "parent of the nodes' data dirs")
		cmp      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if *cmp {
		os.Exit(runCompare(os.Stdout, flag.Args()))
	}
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, out: *out, traceOut: *traceOut, tmpRoot: *tmp}
	if *workload == "all" {
		cfg.workloads = workloadNames()
	} else if _, ok := findWorkload(*workload); ok {
		cfg.workloads = []string{*workload}
	} else {
		fatalf("unknown workload %q", *workload)
	}
	if cfg.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		fatalf("%v", err)
	}

	res, err := run(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	res.print(os.Stdout)
	if cfg.out != "" {
		if err := res.writeFile(cfg.out); err != nil {
			fatalf("writing %s: %v", cfg.out, err)
		}
	}
	if len(cfg.workloads) == 1 {
		line, err := res.contractLine(cfg.workloads[0])
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(line)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	return names
}

func runCompare(w io.Writer, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
		return 2
	}
	a, err := readResult(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResult(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	rows, failedWorse := compare(a, b)
	if !printCompare(w, rows, failedWorse) {
		return 1
	}
	return 0
}

// Sizing of a round from the -seconds budget. The window never drops the
// round count: a short budget shortens the window instead.
const (
	maxWarm = 300 * time.Millisecond
	// growRate sizes serve_resize's fixed Grow count from the window, at
	// about the rate the sizing runs saw, so the phase lasts about a window.
	growRate = 2000 // grows per window second
	// groupRate sizes recover's clusters per round the same way: a cluster
	// of recoverCycles restarts takes about 0.3 s with its set-up.
	groupRate = 3 // clusters per window second
	// A round repeats its set-up alone and reports the median, so that
	// setup_s is not one noisy sample: at least minSetups times, and for a
	// cheap set-up (the local arrays build in under a millisecond) until it
	// has spent setupBudget or taken maxSetups.
	setupBudget = 40 * time.Millisecond
	minSetups   = 2
	maxSetups   = 9
)

func (c config) env(roundSeed uint64) *env {
	window := time.Duration(c.seconds / numRounds * float64(time.Second))
	warm := window / 4
	if warm > maxWarm {
		warm = maxWarm
	}
	atLeast1 := func(x float64) int {
		if x < 1 {
			return 1
		}
		return int(x)
	}
	return &env{
		seed: roundSeed, clients: numClients,
		warm: warm, window: window,
		grows:  atLeast1(window.Seconds() * growRate),
		groups: atLeast1(window.Seconds() * groupRate),
		cycles: recoverCycles,
		expect: val, tmpRoot: c.tmpRoot,
	}
}

// runRound runs one round of a workload and then repeats its set-up alone
// while that is cheap; the round reports the median of its set-ups.
func runRound(fn func(*env) (roundOut, error), e *env) (roundOut, error) {
	// Every timed set-up starts from a collected heap: without this a
	// sub-millisecond set-up doubles whenever the previous round's garbage
	// makes a collection fall inside it.
	runtime.GC()
	out, err := fn(e)
	if err != nil {
		return out, err
	}
	only := *e
	only.setupOnly = true
	var spent float64
	for _, s := range out.Setups {
		spent += s
	}
	for len(out.Setups) < minSetups || spent < setupBudget.Seconds() && len(out.Setups) < maxSetups {
		runtime.GC()
		o, err := fn(&only)
		if err != nil {
			return out, fmt.Errorf("repeating the set-up: %w", err)
		}
		out.Setups = append(out.Setups, o.Setups...)
		spent += o.Setups[0]
	}
	return out, nil
}

// run executes the configured pass and assembles the result.
func run(cfg config) (*result, error) {
	res := &result{
		Schema: resultSchema, Seed: cfg.seed, Seconds: cfg.seconds,
		Rounds: numRounds, WindowS: cfg.seconds / numRounds, Clients: numClients, Traced: cfg.trace,
		Host: fingerprint(cfg.tmpRoot), Calibration: calibrate(),
	}
	// Observability is off for every measured round; only the traced pass
	// turns it on, and it turns it off again.
	obs.SetEnabled(false)
	if cfg.trace {
		if err := tracedPass(cfg, res); err != nil {
			return nil, err
		}
		return res, nil
	}

	// A round visits every workload once, in an order rotated per round, so
	// no workload always runs first or always after the same neighbour.
	rounds := make(map[string][]roundOut)
	wall := make(map[string]time.Duration)
	seeds := rng{s: cfg.seed}
	for r := 0; r < numRounds; r++ {
		roundSeed := seeds.next()
		for i := range cfg.workloads {
			name := cfg.workloads[(i+r)%len(cfg.workloads)]
			start := time.Now()
			out, err := runRound(workloadFuncs[name], cfg.env(roundSeed))
			if err != nil {
				return nil, fmt.Errorf("%s, round %d: %w", name, r, err)
			}
			wall[name] += time.Since(start)
			rounds[name] = append(rounds[name], out)
		}
	}
	for _, name := range cfg.workloads {
		w := aggregate(name, rounds[name])
		w.WallS = wall[name].Seconds()
		res.Workloads = append(res.Workloads, w)
		for _, m := range endToEnd {
			// setup_s lists set-ups, not rounds, and a process's first ones
			// are cold: its spread says nothing about the host's steadiness.
			if m.Name == "setup_s" {
				continue
			}
			mr := w.Metrics[m.Name]
			if sp := mr.spread(); sp > m.Bound {
				res.Warnings = append(res.Warnings, fmt.Sprintf("%s %s: round-to-round spread %.1f%% exceeds its %.0f%% bound",
					name, m.Name, 100*sp, 100*m.Bound))
			}
		}
	}
	return res, nil
}

// roundMetrics turns one round into its end-to-end values (set-up apart: see
// metricResult.Values) and the sample count behind each; a percentile
// without ten samples beyond it is absent.
func roundMetrics(o roundOut) (vals map[string]float64, samples map[string]int64) {
	vals = map[string]float64{}
	samples = map[string]int64{"setup_s": int64(len(o.Setups)), "ops_per_s": o.Ops, "op_p50_us": int64(len(o.Lat)), "op_p99_us": int64(len(o.Lat))}
	if o.OpsPerS > 0 {
		vals["ops_per_s"] = o.OpsPerS
	}
	if p, ok := percentile(o.Lat, 50); ok {
		vals["op_p50_us"] = float64(p) / 1e3
	}
	if p, ok := percentile(o.Lat, 99); ok {
		vals["op_p99_us"] = float64(p) / 1e3
	}
	return vals, samples
}

// aggregate folds a workload's rounds into medians.
func aggregate(name string, rounds []roundOut) workloadResult {
	spec, _ := findWorkload(name)
	w := workloadResult{Name: name, Op: spec.Op, Counts: spec.Counts,
		Metrics: map[string]metricResult{}, Extra: map[string]float64{}}
	perMetric := map[string]*metricResult{}
	for _, m := range endToEnd {
		perMetric[m.Name] = &metricResult{Unit: m.Unit, Better: m.Better, Bound: m.Bound}
	}
	extras := map[string][]float64{}
	var mem []float64
	for _, o := range rounds {
		w.Attempted += o.Attempted
		w.Failed += o.Failed
		w.Notes = append(w.Notes, o.Notes...)
		mem = append(mem, float64(o.MemSys)/(1<<20))
		vals, samples := roundMetrics(o)
		for _, m := range endToEnd {
			mr := perMetric[m.Name]
			if m.Name == "setup_s" {
				mr.Values = append(mr.Values, o.Setups...)
				mr.Samples = append(mr.Samples, samples[m.Name])
			} else if v, ok := vals[m.Name]; ok {
				mr.Values = append(mr.Values, v)
				mr.Samples = append(mr.Samples, samples[m.Name])
			} else {
				mr.Missing++
			}
		}
		for k, v := range o.Extra {
			extras[k] = append(extras[k], v)
		}
	}
	for name, mr := range perMetric {
		mr.summary = summarize(mr.Values)
		w.Metrics[name] = *mr
	}
	pooledTail(&w, rounds)
	for k, vs := range extras {
		w.Extra[k] = summarize(vs).Median
	}
	w.MemMB = summarize(mem).Median
	if w.Attempted > 0 {
		w.FailedFrac = float64(w.Failed) / float64(w.Attempted)
	}
	return w
}

// pooledTail reports op_p99_us from the pooled samples of all rounds when a
// single round is too short to have ten samples beyond its own 99th
// percentile (recover: a restart takes milliseconds). The pooled value is
// the one reported; no per-round values exist to take a median or spread of.
func pooledTail(w *workloadResult, rounds []roundOut) {
	mr := w.Metrics["op_p99_us"]
	if mr.Missing == 0 {
		return
	}
	var all []int64
	for _, o := range rounds {
		all = append(all, o.Lat...)
	}
	slices.Sort(all)
	p, ok := percentile(all, 99)
	if !ok {
		return
	}
	v := float64(p) / 1e3
	mr.summary = summary{Median: v, Min: v, Max: v, Q1: v, Q3: v}
	mr.Values, mr.Samples, mr.Missing, mr.Pooled = []float64{v}, []int64{int64(len(all))}, 0, true
	w.Metrics["op_p99_us"] = mr
}

// print writes every metric by name with its unit, sample count and bound.
func (r *result) print(w io.Writer) {
	h := r.Host
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s %s/%s kernel=%s tmp=%s (%s)\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, h.Kernel, h.TmpDir, h.TmpFS)
	fmt.Fprintf(w, "calibration: time.Now()=%.1f ns, empty probe loop=%.2f ns/iter (subtracted from ns/op probes)\n",
		r.Calibration.TimeNowNs, r.Calibration.EmptyLoopNs)
	fmt.Fprintf(w, "seed=%d clients=%d rounds=%d window=%.2fs traced=%v\n", r.Seed, r.Clients, r.Rounds, r.WindowS, r.Traced)
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "\n%s  (op: %s; ops: %s)  wall=%.1fs mem=%.0f MiB attempted=%d failed=%d failed_frac=%g\n",
			wl.Name, wl.Op, wl.Counts, wl.WallS, wl.MemMB, wl.Attempted, wl.Failed, wl.FailedFrac)
		for _, m := range endToEnd {
			mr, ok := wl.Metrics[m.Name]
			if !ok {
				continue
			}
			if len(mr.Values) == 0 {
				fmt.Fprintf(w, "  %-10s %-4s not reported: fewer than %d samples beyond it in every round (samples %v)\n", m.Name, m.Unit, tailSamples, mr.Samples)
				continue
			}
			fmt.Fprintf(w, "  %-10s %-4s median=%-14.6g q1=%-12.6g q3=%-12.6g min=%-12.6g max=%-12.6g spread=%4.1f%% bound=%2.0f%% samples=%v\n",
				m.Name, m.Unit, mr.Median, mr.Q1, mr.Q3, mr.Min, mr.Max, 100*mr.spread(), 100*m.Bound, mr.Samples)
		}
		for _, k := range sortedKeys(wl.Extra) {
			fmt.Fprintf(w, "  (info) %s=%.6g\n", k, wl.Extra[k])
		}
		for _, n := range wl.Notes {
			fmt.Fprintf(w, "  FAILED CHECK: %s\n", n)
		}
	}
	if len(r.Layers) > 0 {
		fmt.Fprintf(w, "\nper-layer ledger (traced pass; timings are ledger rows, not gated):\n")
		for _, l := range perLayer {
			v, ok := r.Layers[l.Name]
			if !ok {
				continue
			}
			base := ""
			if v.Base != "" {
				base = "  [base: " + v.Base + "]"
			}
			fmt.Fprintf(w, "  %-30s %14.6g %-6s -> %s%s\n", l.Name, v.Value, l.Unit, l.Moves, base)
		}
	}
	for _, warn := range r.Warnings {
		fmt.Fprintf(w, "WARNING: %s\n", warn)
	}
}

// contractLine is the single JSON object the driver reads from the last line
// of standard output: every end-to-end metric after a measured run, every
// per-layer metric after a traced one.
func (r *result) contractLine(name string) (string, error) {
	wl := r.workload(name)
	if wl == nil {
		return "", fmt.Errorf("no result for workload %s", name)
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if r.Traced {
		for _, l := range perLayer {
			v, ok := r.Layers[l.Name]
			if !ok {
				return "", fmt.Errorf("the traced pass produced no %s", l.Name)
			}
			metrics[l.Name] = mv{v.Value, l.Unit}
		}
	} else {
		for _, m := range endToEnd {
			mr := wl.Metrics[m.Name]
			if len(mr.Values) == 0 || mr.Missing > 0 {
				return "", fmt.Errorf("%s %s: %d of %d rounds had fewer than %d samples beyond the percentile (samples %v); lengthen -seconds",
					name, m.Name, mr.Missing, r.Rounds, tailSamples, mr.Samples)
			}
			metrics[m.Name] = mv{mr.Median, m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{wl.Failed == 0, wl.Attempted, wl.Failed, metrics})
	return string(line), err
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
