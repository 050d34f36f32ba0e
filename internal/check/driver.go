package check

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rcuarray/internal/workload"
)

// Driver is a seeded deterministic interleaving scheduler. A fixed number
// of logical tasks each own a pump goroutine that executes operation bodies
// strictly one at a time; the driver (driven from a single generator
// goroutine) decides which task runs, when overlapping operations begin and
// complete, and stamps every call and return with a unique logical
// timestamp. Given the same seed and generator, the recorded History is
// byte-for-byte identical across runs.
//
// Overlap is expressed with Begin/Await: ops Begun on different tasks are
// genuinely concurrent (their bodies run on distinct goroutines), so the
// schedule exercises real interleavings inside the target — generators are
// responsible for only overlapping ops whose *results* are race-free, which
// is what keeps histories deterministic.
//
// Arm/WaitYield/Resume park one op mid-flight at an instrumentation point
// (for example core's PointIndexSnapLoaded), turning the reclamation-hazard
// windows — resize during read, checkpoint starvation, epoch flips — into
// deterministic schedules.
type Driver struct {
	hist  *History
	rng   *workload.RNG
	clock int64

	tasks []*taskState
	wg    sync.WaitGroup

	armed    atomic.Bool
	parkCh   chan string
	resumeCh chan struct{}
}

type taskState struct {
	work chan func()
	// done carries one completion signal per Begun op (buffer 1): Await
	// consumes it; StillRunning and WaitYield only observe it.
	done    chan struct{}
	cur     *Op
	running bool
}

// NewDriver creates a driver with tasks pump goroutines and an empty
// history carrying the given name and seed. Call Close when done.
func NewDriver(name string, seed uint64, tasks int) *Driver {
	if tasks <= 0 {
		panic(fmt.Sprintf("check: NewDriver with %d tasks", tasks))
	}
	d := &Driver{
		hist:     &History{Name: name, Seed: seed, Tasks: tasks},
		rng:      workload.NewRNG(seed),
		parkCh:   make(chan string, 1),
		resumeCh: make(chan struct{}),
	}
	for i := 0; i < tasks; i++ {
		ts := &taskState{work: make(chan func()), done: make(chan struct{}, 1)}
		d.tasks = append(d.tasks, ts)
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			for f := range ts.work {
				f()
			}
		}()
	}
	return d
}

// Close shuts the pump goroutines down. Every Begun op must have been
// Awaited first.
func (d *Driver) Close() {
	for _, ts := range d.tasks {
		if ts.running {
			panic("check: Close with an op still in flight")
		}
		close(ts.work)
	}
	d.wg.Wait()
}

// History returns the recorded history (owned by the driver; read it after
// the generating schedule finishes).
func (d *Driver) History() *History { return d.hist }

// RNG returns the driver's seeded generator, shared with schedule builders
// so one seed determines everything.
func (d *Driver) RNG() *workload.RNG { return d.rng }

// Tasks returns the logical task count.
func (d *Driver) Tasks() int { return len(d.tasks) }

func (d *Driver) tick() int64 { d.clock++; return d.clock }

// Begin launches op's body on task's pump and returns immediately, stamping
// the call time. The body fills the op's Out/Out2 fields; a panic inside it
// is captured into op.Panic instead of propagating.
func (d *Driver) Begin(task int, op Op, body func(*Op)) {
	ts := d.tasks[task]
	if ts.running {
		panic(fmt.Sprintf("check: Begin on task %d with an op already in flight", task))
	}
	op.Task = task
	op.Call = d.tick()
	cur := &op
	ts.cur = cur
	ts.running = true
	ts.work <- func() {
		defer func() {
			if r := recover(); r != nil {
				cur.Panic = fmt.Sprint(r)
			}
			ts.done <- struct{}{}
		}()
		body(cur)
	}
}

// Await blocks until task's in-flight op completes, stamps the return time,
// records the op in the history and returns it.
func (d *Driver) Await(task int) Op {
	ts := d.tasks[task]
	if !ts.running {
		panic(fmt.Sprintf("check: Await on task %d with no op in flight", task))
	}
	<-ts.done
	ts.running = false
	ts.cur.Ret = d.tick()
	op := *ts.cur
	d.hist.Add(op)
	return op
}

// Do runs op synchronously on task: Begin immediately followed by Await, so
// its interval overlaps nothing.
func (d *Driver) Do(task int, op Op, body func(*Op)) Op {
	d.Begin(task, op, body)
	return d.Await(task)
}

// StillRunning reports whether task's in-flight op is still executing after
// observing it for wait. It is one-sided: used to assert that an op which
// must block (a Synchronize against a live reader) has not completed. It
// does not consume the completion signal.
func (d *Driver) StillRunning(task int, wait time.Duration) bool {
	ts := d.tasks[task]
	if !ts.running {
		return false
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-ts.done:
		ts.done <- struct{}{} // put the completion back for Await
		return false
	case <-timer.C:
		return true
	}
}

// Arm primes the yield gate: the next YieldPoint call parks its op. Arm the
// gate, Begin exactly the victim op, then WaitYield.
func (d *Driver) Arm() {
	if !d.armed.CompareAndSwap(false, true) {
		panic("check: Arm while already armed")
	}
}

// YieldPoint is the instrumentation callback to install into the target's
// test hooks (e.g. core.Hooks.Yield). When the gate is armed it parks the
// calling op — control returns to the generator via WaitYield — until
// Resume. Unarmed calls are free.
func (d *Driver) YieldPoint(point string) {
	if !d.armed.CompareAndSwap(true, false) {
		return
	}
	d.parkCh <- point
	<-d.resumeCh
}

// WaitYield blocks until task's armed op parks at a yield point and returns
// the point's name. It panics if the op completes without yielding (the
// schedule armed an op with no instrumentation on its path). A parked op
// cannot complete before Resume, so at most one of the two cases is ready.
func (d *Driver) WaitYield(task int) string {
	select {
	case p := <-d.parkCh:
		return p
	case <-d.tasks[task].done:
		panic("check: armed op completed without reaching a yield point")
	}
}

// Resume releases the op parked at a yield point.
func (d *Driver) Resume() { d.resumeCh <- struct{}{} }
