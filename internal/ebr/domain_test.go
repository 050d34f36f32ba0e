package ebr

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestEnterExitBalancesCounters(t *testing.T) {
	d := New()
	g := d.Enter()
	if got := d.ActiveReaders(g.idx); got != 1 {
		t.Fatalf("ActiveReaders during section = %d, want 1", got)
	}
	if g.Epoch() != 0 {
		t.Fatalf("guard epoch = %d, want 0", g.Epoch())
	}
	g.Exit()
	if got := d.ActiveReaders(0) + d.ActiveReaders(1); got != 0 {
		t.Fatalf("ActiveReaders after Exit = %d, want 0", got)
	}
}

func TestExitZeroGuardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exit of zero Guard did not panic")
		}
	}()
	var g Guard
	g.Exit()
}

func TestReadRunsFunction(t *testing.T) {
	d := New()
	ran := false
	d.Read(func() {
		ran = true
		if got := d.ActiveReaders(0); got != 1 {
			t.Errorf("ActiveReaders inside Read = %d, want 1", got)
		}
	})
	if !ran {
		t.Fatal("Read did not invoke fn")
	}
}

func TestSynchronizeAdvancesEpoch(t *testing.T) {
	d := New()
	for i := 1; i <= 5; i++ {
		d.Synchronize()
		if got := d.Epoch(); got != uint64(i) {
			t.Fatalf("Epoch after %d Synchronize = %d", i, got)
		}
	}
	if got := d.Synchronizes(); got != 5 {
		t.Fatalf("Synchronizes = %d, want 5", got)
	}
}

// A writer must block in Synchronize until a reader that linearized against
// the pre-advance epoch exits (paper Lemma 3: the reader's snapshot cannot be
// reclaimed underneath it).
func TestSynchronizeWaitsForPriorReader(t *testing.T) {
	d := New()
	g := d.Enter()

	done := make(chan struct{})
	go func() {
		d.Synchronize()
		close(done)
	}()

	select {
	case <-done:
		t.Fatal("Synchronize returned while a prior reader was still active")
	case <-time.After(20 * time.Millisecond):
	}

	g.Exit()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Synchronize did not return after reader exit")
	}
}

// A reader that linearizes *after* the epoch advance must not block the
// writer: it recorded against the new parity (paper's two-snapshot argument).
func TestSynchronizeIgnoresNewEpochReaders(t *testing.T) {
	d := New()
	// Reader on epoch 0 parity.
	g0 := d.Enter()

	syncStarted := make(chan struct{})
	done := make(chan struct{})
	go func() {
		close(syncStarted)
		d.Synchronize() // advances epoch 0 -> 1, waits on parity 0
		close(done)
	}()
	<-syncStarted
	// Wait until the writer has advanced the epoch.
	for d.Epoch() == 0 {
		time.Sleep(time.Millisecond)
	}

	// New reader linearizes against epoch 1: must not be waited on.
	g1 := d.Enter()
	if g1.Epoch() != 1 {
		t.Fatalf("new reader epoch = %d, want 1", g1.Epoch())
	}

	select {
	case <-done:
		t.Fatal("Synchronize returned while the epoch-0 reader was active")
	case <-time.After(10 * time.Millisecond):
	}

	g0.Exit()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Synchronize blocked on a new-epoch reader")
	}
	g1.Exit()
}

func TestConcurrentSynchronizePanics(t *testing.T) {
	d := New()
	g := d.Enter() // hold the writer in its wait loop
	started := make(chan struct{})
	go func() {
		close(started)
		d.Synchronize()
	}()
	<-started
	for d.Epoch() == 0 {
		time.Sleep(time.Millisecond)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second concurrent Synchronize did not panic")
			}
			g.Exit() // release the first writer
		}()
		d.Synchronize()
	}()
}

// Verification-failure path: force the epoch to move between the reader's
// load and increment by interleaving manually through the exported pieces.
// We can't pause a goroutine mid-Enter, so instead hammer Enter/Exit against
// a rapidly synchronizing writer and require that (a) retries occur and
// (b) counters still balance.
func TestEnterRetriesUnderEpochChurn(t *testing.T) {
	d := New()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			d.Synchronize()
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 20000; i++ {
				g := d.Enter()
				g.Exit()
			}
		}()
	}
	readers.Wait()
	stop.Store(true)
	wg.Wait()
	if got := d.ActiveReaders(0) + d.ActiveReaders(1); got != 0 {
		t.Fatalf("reader counters unbalanced after churn: %d", got)
	}
	// Retries are probabilistic; with tens of thousands of ops against a
	// spinning writer the expected count is far above zero. Log rather
	// than assert to keep the test deterministic.
	t.Logf("verification retries observed: %d", d.Retries())
}

// Property: any nesting-free sequence of Enter/Exit pairs leaves both
// counters at zero and never drives them negative (they are uint64: a
// negative excursion would appear as a huge value).
func TestCounterBalanceProperty(t *testing.T) {
	f := func(sections uint8, syncsBetween uint8) bool {
		d := New()
		for i := 0; i < int(sections%32); i++ {
			g := d.Enter()
			if d.ActiveReaders(g.idx) == 0 || d.ActiveReaders(g.idx) > uint64(sections) {
				return false
			}
			g.Exit()
			for s := 0; s < int(syncsBetween%4); s++ {
				d.Synchronize()
			}
		}
		return d.ActiveReaders(0) == 0 && d.ActiveReaders(1) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewAtEpoch(t *testing.T) {
	d := NewAtEpoch(41)
	if got := d.Epoch(); got != 41 {
		t.Fatalf("Epoch = %d, want 41", got)
	}
	g := d.Enter()
	if g.idx != 1 {
		t.Fatalf("parity index for epoch 41 = %d, want 1", g.idx)
	}
	g.Exit()
}

// Stress for the park/wake handshake: readers on distinct stripes churn
// EnterSlot/Exit — epoch advances landing between a reader's load and its
// increment send it through the verification-failure undo — while one writer
// runs back-to-back Synchronize calls, most of which outlast the spin phase
// and park. A lost wake-up leaves the writer parked forever; the deadline
// turns that into a failure naming the stuck state.
func TestSynchronizeParkWakeStress(t *testing.T) {
	syncs, timeout := 50000, 60*time.Second
	if testing.Short() {
		syncs, timeout = 10000, 20*time.Second
	}
	d := NewStriped(4)
	var stop atomic.Bool
	var parkedSeen atomic.Int64
	var wg, ready sync.WaitGroup
	for slot := 0; slot < 3; slot++ {
		wg.Add(1)
		ready.Add(1)
		go func(slot int) {
			defer wg.Done()
			ready.Done()
			for i := 0; !stop.Load(); i++ {
				g := d.EnterSlot(slot)
				if d.waiter.Load() != nil {
					parkedSeen.Add(1)
				}
				if i%4 == 0 {
					// Hold past the writer's spin phase.
					runtime.Gosched()
				}
				g.Exit()
			}
		}(slot)
	}

	ready.Wait()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < syncs; i++ {
			d.Synchronize()
		}
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatalf("Synchronize hung after %v: epoch %d, parity-0 readers %d, parity-1 readers %d, waiter set %v",
			timeout, d.Epoch(), d.ActiveReaders(0), d.ActiveReaders(1), d.waiter.Load() != nil)
	}
	stop.Store(true)
	wg.Wait()

	if d.ActiveReaders(0)+d.ActiveReaders(1) != 0 {
		t.Fatalf("counters unbalanced after the run: %d + %d", d.ActiveReaders(0), d.ActiveReaders(1))
	}
	if d.waiter.Load() != nil {
		t.Fatal("waiter left published after the last Synchronize returned")
	}
	if parkedSeen.Load() == 0 {
		t.Fatal("no reader ever saw a parked writer: the park path was not exercised")
	}
	t.Logf("%d syncs, %d verification retries, %d reader sections saw a parked writer",
		syncs, d.Retries(), parkedSeen.Load())
}

// Lockstep rounds in which one reader's exit is the only event that can
// wake the writer: the reader holds a section, the writer advances the
// epoch, and the reader exits after a varying spin that lands before,
// during and after the writer's move from spinning to parking. Nothing else
// touches the domain until the writer returns, so a lost wake-up (an exit
// landing between the writer's last sum and its waiter store with no re-sum
// after the store) hangs the round, and the deadline reports it.
func TestSynchronizeParkWakeLastExit(t *testing.T) {
	rounds, timeout := 20000, 60*time.Second
	if testing.Short() {
		rounds, timeout = 5000, 20*time.Second
	}
	d := NewStriped(4)
	start, synced := make(chan struct{}), make(chan struct{})
	go func() {
		for range start {
			d.Synchronize()
			synced <- struct{}{}
		}
	}()
	defer close(start)
	deadline := time.After(timeout)
	var work int
	for i := 0; i < rounds; i++ {
		g := d.EnterSlot(1)
		before := d.Epoch()
		start <- struct{}{}
		for d.Epoch() == before {
			runtime.Gosched()
		}
		for j := 0; j < (i*37)%4096; j++ {
			work += j
		}
		g.Exit()
		select {
		case <-synced:
		case <-deadline:
			t.Fatalf("round %d: Synchronize hung after the last reader exited (epoch %d, readers %d/%d, waiter set %v)",
				i, d.Epoch(), d.ActiveReaders(0), d.ActiveReaders(1), d.waiter.Load() != nil)
		}
	}
	busySink.Add(int64(work))
}
