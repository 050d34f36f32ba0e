package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Spans are recorded from the benchmark's own files, around its calls into
// each layer; spans inside the program are a later change. They stay in
// memory and are written once, at exit, as Chrome trace-event JSON.

type span struct {
	name       string
	id, parent int64
	tid        int
	start, end time.Time
	n          int // calls the span covers (probe loops), 0 for a single op
}

// spanRec collects spans. Each goroutine appends to its own track, so the
// measured loops take no lock; ids come from one mutex-guarded counter that
// only round and probe spans (a handful per run) touch directly.
type spanRec struct {
	t0 time.Time

	mu     sync.Mutex
	nextID int64
	tracks []*spanTrack
}

type spanTrack struct {
	rec   *spanRec
	tid   int
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

func (r *spanRec) newID() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// track returns a new single-writer track. Nil-safe: an untraced run has no
// recorder and gets a nil track, whose add is a no-op.
func (r *spanRec) track() *spanTrack {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &spanTrack{rec: r, tid: len(r.tracks) + 1, spans: make([]span, 0, 1024)}
	r.tracks = append(r.tracks, t)
	return t
}

func (t *spanTrack) add(name string, parent int64, start, end time.Time, n int) {
	if t != nil {
		t.addID(t.rec.newID(), name, parent, start, end, n)
	}
}

// addID records a span under an id reserved earlier with newID: a parent's
// id must exist before its children are recorded, its end only after.
func (t *spanTrack) addID(id int64, name string, parent int64, start, end time.Time, n int) {
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, tid: t.tid, start: start, end: end, n: n})
}

// all returns every recorded span; call it only after the writers stopped.
func (r *spanRec) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, t := range r.tracks {
		out = append(out, t.spans...)
	}
	return out
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeTrace writes the spans as a Chrome trace ("traceEvents" array of
// complete events) that Perfetto loads directly. Nesting on a track follows
// time containment; args.parent carries the causing span's id explicitly.
func (r *spanRec) writeTrace(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	enc := json.NewEncoder(w)
	for i, s := range r.all() {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		args := map[string]any{"id": s.id, "parent": s.parent}
		if s.n > 0 {
			args["calls"] = s.n
		}
		ev := traceEvent{
			Name: s.name, Cat: "benchmark", Ph: "X",
			Ts:  float64(s.start.Sub(r.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.tid, Args: args,
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	return w.Flush()
}
