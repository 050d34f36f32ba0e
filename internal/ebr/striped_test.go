package ebr

import (
	"sync"
	"testing"
	"time"
)

func TestStripeSizing(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {8, 8},
		{9, 16}, {16, 16}, {44, MaxStripes}, {1000, MaxStripes},
	}
	for _, c := range cases {
		if got := NewStriped(c.n).Stripes(); got != c.want {
			t.Errorf("NewStriped(%d).Stripes() = %d, want %d", c.n, got, c.want)
		}
	}
	var zero Domain
	if got := zero.Stripes(); got != 1 {
		t.Errorf("zero Domain Stripes() = %d, want 1", got)
	}
	if got := New().Stripes(); got != DefaultStripes {
		t.Errorf("New().Stripes() = %d, want %d", got, DefaultStripes)
	}
}

// Distinct slots land on distinct stripes (up to the stripe count), and
// ActiveReaders sums them.
func TestEnterSlotSpreadsStripes(t *testing.T) {
	d := NewStriped(4)
	guards := make([]Guard, 4)
	for slot := range guards {
		guards[slot] = d.EnterSlot(slot)
	}
	for slot := range guards {
		if got := d.StripeReaders(0, slot); got != 1 {
			t.Errorf("stripe %d = %d, want 1", slot, got)
		}
	}
	if got := d.ActiveReaders(0); got != 4 {
		t.Errorf("ActiveReaders(0) = %d, want 4", got)
	}
	// Slots beyond the stripe count wrap onto existing stripes.
	g := d.EnterSlot(4) // 4 & 3 == 0
	if got := d.StripeReaders(0, 0); got != 2 {
		t.Errorf("stripe 0 after wrapped slot = %d, want 2", got)
	}
	g.Exit()
	for i := range guards {
		guards[i].Exit()
	}
	if got := d.ActiveReaders(0) + d.ActiveReaders(1); got != 0 {
		t.Errorf("counters after exits = %d, want 0", got)
	}
}

// Synchronize must wait for a reader on ANY stripe of the retired parity —
// the summation cannot early-out after seeing some zero stripes.
func TestSynchronizeWaitsOnEveryStripe(t *testing.T) {
	for slot := 0; slot < 4; slot++ {
		d := NewStriped(4)
		g := d.EnterSlot(slot)
		done := make(chan struct{})
		go func() {
			d.Synchronize()
			close(done)
		}()
		select {
		case <-done:
			t.Fatalf("Synchronize returned past a reader on stripe %d", slot)
		case <-time.After(10 * time.Millisecond):
		}
		g.Exit()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("Synchronize did not return after stripe-%d reader exit", slot)
		}
	}
}

// Readers spread over every stripe, exiting in an adversarial order
// (highest stripe first, so the summation pass keeps finding the lower
// stripes nonzero): Synchronize completes only after the last exit.
func TestSynchronizeSumsAllStripes(t *testing.T) {
	d := NewStriped(4)
	guards := make([]Guard, 4)
	for slot := range guards {
		guards[slot] = d.EnterSlot(slot)
	}
	done := make(chan struct{})
	go func() {
		d.Synchronize()
		close(done)
	}()
	for slot := len(guards) - 1; slot >= 0; slot-- {
		select {
		case <-done:
			t.Fatalf("Synchronize returned with %d stripes still occupied", slot+1)
		case <-time.After(5 * time.Millisecond):
		}
		guards[slot].Exit()
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Synchronize did not return after all stripes emptied")
	}
}

// Guard misuse: exiting the same guard twice panics.
func TestDoubleExitPanics(t *testing.T) {
	d := New()
	g := d.Enter()
	g.Exit()
	defer func() {
		if recover() == nil {
			t.Fatal("double Exit did not panic")
		}
	}()
	g.Exit()
}

// Guard misuse: exiting a copy of an already-exited guard underflows the
// stripe counter, which the decrement detects.
func TestCopiedGuardExitUnderflowPanics(t *testing.T) {
	d := New()
	g := d.Enter()
	gCopy := g // copies the pre-exit state: the copy's exited flag stays false
	g.Exit()
	defer func() {
		if recover() == nil {
			t.Fatal("Exit of copied already-exited guard did not panic")
		}
	}()
	gCopy.Exit()
}

// A copied guard may legitimately be exited when the original never was —
// the counter stays balanced; only the *extra* exit is a bug.
func TestCopiedGuardSingleExitIsFine(t *testing.T) {
	d := New()
	g := d.Enter()
	gCopy := g
	gCopy.Exit()
	if got := d.ActiveReaders(0) + d.ActiveReaders(1); got != 0 {
		t.Fatalf("counters after copied-guard exit = %d, want 0", got)
	}
}

// Retries accounting still works under the striped layout: hammer
// EnterSlot on many slots against a spinning writer and require balanced
// counters on every stripe.
func TestRetriesAndBalanceUnderStripedChurn(t *testing.T) {
	d := NewStriped(8)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				d.Synchronize()
			}
		}
	}()
	var readers sync.WaitGroup
	iters := 20000
	if testing.Short() {
		iters = 2000
	}
	for slot := 0; slot < 8; slot++ {
		readers.Add(1)
		go func(slot int) {
			defer readers.Done()
			for i := 0; i < iters; i++ {
				g := d.EnterSlot(slot)
				g.Exit()
			}
		}(slot)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	for parity := uint64(0); parity < 2; parity++ {
		for s := 0; s < d.Stripes(); s++ {
			if got := d.StripeReaders(parity, s); got != 0 {
				t.Errorf("stripe [%d][%d] unbalanced after churn: %d", parity, s, got)
			}
		}
	}
	t.Logf("verification retries observed: %d", d.Retries())
}

// Read releases the reader counter even when fn panics — the reader-leak
// regression: before the deferred exit, a panicking read-side closure
// permanently inflated the counter and wedged every later Synchronize.
func TestReadReleasesGuardOnPanic(t *testing.T) {
	d := New()
	func() {
		defer func() { _ = recover() }()
		d.Read(func() { panic("poisoned block") })
	}()
	if got := d.ActiveReaders(0) + d.ActiveReaders(1); got != 0 {
		t.Fatalf("reader counter leaked across panic: %d", got)
	}
	done := make(chan struct{})
	go func() {
		d.Synchronize()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Synchronize wedged after panicking Read")
	}
}
