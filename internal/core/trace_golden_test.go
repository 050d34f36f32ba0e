package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"rcuarray/internal/locale"
	"rcuarray/internal/obs"
)

// chromeOut mirrors the Chrome trace-event JSON WriteTrace emits.
type chromeOut struct {
	TraceEvents []struct {
		Name  string  `json:"name"`
		Phase string  `json:"ph"`
		Ts    float64 `json:"ts"`
		Pid   int     `json:"pid"`
		Tid   int     `json:"tid"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestGoldenResizeTrace runs a fixed resize sequence with tracing enabled and
// checks the exported Chrome trace structurally: valid JSON, globally
// non-decreasing timestamps, every B matched by an E with proper nesting on
// its track, and exactly the span population the sequence implies. The run is
// far below RingSize events per track, so nothing wraps and nothing may be
// dropped by the exporter's orphan filter.
func TestGoldenResizeTrace(t *testing.T) {
	const (
		locales = 2
		grows   = 12
		shrinks = 6
		block   = 16
	)
	was := obs.On()
	obs.SetEnabled(true)
	defer obs.SetEnabled(was)

	c := newTestCluster(t, locales, 2)
	c.Run(func(task *locale.Task) {
		a := New[int64](task, Options{BlockSize: block, Variant: VariantEBR})
		for i := 0; i < grows; i++ {
			a.Grow(task, block)
		}
		for i := 0; i < shrinks; i++ {
			a.Shrink(task, block)
		}
	})

	var buf bytes.Buffer
	if err := c.Obs().Tracer().WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var out chromeOut
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", out.DisplayTimeUnit)
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	// Timestamps non-decreasing in file order (Events sorts globally) and
	// strict B/E stack discipline per (pid, tid) track.
	begins := map[string]int{}
	instants := map[string]int{}
	stacks := map[[2]int][]string{}
	lastTs := -1.0
	for i, e := range out.TraceEvents {
		if e.Ts < lastTs {
			t.Fatalf("event %d: ts %v < previous %v — export is not time-sorted", i, e.Ts, lastTs)
		}
		lastTs = e.Ts
		k := [2]int{e.Pid, e.Tid}
		switch e.Phase {
		case "B":
			begins[e.Name]++
			stacks[k] = append(stacks[k], e.Name)
		case "E":
			st := stacks[k]
			if len(st) == 0 {
				t.Fatalf("event %d: E %q on track %v with no open span", i, e.Name, k)
			}
			if top := st[len(st)-1]; top != e.Name {
				t.Fatalf("event %d: E %q on track %v but innermost open span is %q", i, e.Name, k, top)
			}
			stacks[k] = st[:len(st)-1]
		case "i":
			// Instants are legal anywhere.
			instants[e.Name]++
		default:
			t.Fatalf("event %d: unknown phase %q", i, e.Phase)
		}
	}
	for k, st := range stacks {
		if len(st) != 0 {
			t.Errorf("track %v: %d spans still open at end of trace: %v", k, len(st), st)
		}
	}

	// Exact span population for the seeded sequence: every resize takes the
	// lock and installs once per locale plus one outer install span on the
	// initiator; only grows allocate, only shrinks free. One-block grows
	// flip the boundary region whenever the pre-grow block count is off a
	// region boundary (oldN % region.DefaultBlocks != 0 for oldN = 0..11
	// gives 10 flips), each with a region-index instant on the initiator's
	// track; shrinks batch retirements and never flip.
	const flips = 10
	want := map[string]int{
		"grow":               grows,
		"shrink":             shrinks,
		"resize.lock":        grows + shrinks,
		"resize.alloc":       grows,
		"resize.free":        shrinks,
		"resize.install":     (grows + shrinks) * (1 + locales),
		"resize.region.flip": flips,
	}
	for name, n := range want {
		if begins[name] != n {
			t.Errorf("span %q: %d begins, want %d", name, begins[name], n)
		}
	}
	for name := range begins {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected span name %q in trace", name)
		}
	}
	if got := instants["resize.region"]; got != flips {
		t.Errorf("instant \"resize.region\": %d, want %d", got, flips)
	}
}
