package ebr

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcuarray/internal/memory"
)

// torture exercises Lemma 3 (a recorded+verified reader may safely access the
// current snapshot) in the style of Linux's rcutorture: a writer continuously
// replaces a protected object, synchronizes, and retires the old version; a
// pack of readers continuously dereferences the object inside read-side
// critical sections. The memory.Object poison turns any premature
// reclamation into a panic, and value checks detect torn publications.
func TestTortureReadersVsWriter(t *testing.T) {
	if testing.Short() {
		t.Skip("torture test skipped in -short mode")
	}

	type snap struct {
		memory.Object
		a, b uint64 // invariant: b == a+1
	}
	var current atomic.Pointer[snap]
	current.Store(&snap{a: 0, b: 1})

	d := New()
	var stop atomic.Bool
	var readerOps atomic.Int64
	const readers = 6

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				g := d.Enter()
				s := current.Load()
				s.CheckLive() // use-after-free detector
				if s.b != s.a+1 {
					t.Errorf("torn snapshot: a=%d b=%d", s.a, s.b)
				}
				// Linger to widen the race window, then re-check:
				// the writer must still not have reclaimed us.
				for i := 0; i < 32; i++ {
					_ = s.a
				}
				s.CheckLive()
				g.Exit()
				readerOps.Add(1)
			}
		}()
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	writes := 0
	for time.Now().Before(deadline) {
		old := current.Load()
		current.Store(&snap{a: old.a + 2, b: old.a + 3})
		d.Synchronize()
		old.Retire() // any reader still holding old would now trip CheckLive
		writes++
	}
	stop.Store(true)
	wg.Wait()

	if writes == 0 || readerOps.Load() == 0 {
		t.Fatalf("torture made no progress: writes=%d readerOps=%d", writes, readerOps.Load())
	}
	t.Logf("torture: %d writes, %d reads, %d verify retries", writes, readerOps.Load(), d.Retries())
	if got := d.ActiveReaders(0) + d.ActiveReaders(1); got != 0 {
		t.Fatalf("reader counters unbalanced after torture: %d", got)
	}
}

// Multiple writers serialized by an external lock (the WriteLock discipline
// of the paper) must be safe and must keep at most two versions live.
func TestTortureSerializedWriters(t *testing.T) {
	if testing.Short() {
		t.Skip("torture test skipped in -short mode")
	}

	type snap struct {
		memory.Object
		v uint64
	}
	var current atomic.Pointer[snap]
	var liveCount atomic.Int64
	newSnap := func(v uint64) *snap {
		liveCount.Add(1)
		return &snap{v: v}
	}
	retire := func(s *snap) {
		s.Retire()
		liveCount.Add(-1)
	}
	current.Store(newSnap(0))

	d := New()
	var writeLock sync.Mutex
	var stop atomic.Bool
	var maxLive atomic.Int64

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				g := d.Enter()
				s := current.Load()
				s.CheckLive()
				if l := liveCount.Load(); l > maxLive.Load() {
					maxLive.Store(l)
				}
				g.Exit()
			}
		}()
	}

	var writers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 50; i++ {
				writeLock.Lock()
				old := current.Load()
				current.Store(newSnap(old.v + 1))
				d.Synchronize()
				retire(old)
				writeLock.Unlock()
			}
		}()
	}
	writers.Wait()
	stop.Store(true)
	wg.Wait()

	if got := current.Load().v; got != 150 {
		t.Fatalf("final version = %d, want 150", got)
	}
	// Lemma 1: at most two snapshots live at once under serialized writers.
	if got := maxLive.Load(); got > 2 {
		t.Fatalf("observed %d live snapshots, want <= 2", got)
	}
}
