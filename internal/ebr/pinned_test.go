package ebr

import (
	"runtime"
	"testing"
	"time"
)

func TestPinDefaultBudget(t *testing.T) {
	d := New()
	p := d.Pin(0, 0)
	defer p.Unpin()
	if got := p.Budget(); got != DefaultPinBudget {
		t.Errorf("Pin(0, 0).Budget() = %d, want %d", got, DefaultPinBudget)
	}
	p2 := d.Pin(0, -5)
	defer p2.Unpin()
	if got := p2.Budget(); got != DefaultPinBudget {
		t.Errorf("Pin(0, -5).Budget() = %d, want %d", got, DefaultPinBudget)
	}
}

// Tick stays false within the budget window and reports true exactly when
// the window is spent — at which point the session has re-entered under a
// fresh guard and the repin counter advanced.
func TestTickRepinsOnBudgetExhaustion(t *testing.T) {
	d := New()
	p := d.Pin(0, 4)
	defer p.Unpin()
	for i := 0; i < 3; i++ {
		if p.Tick() {
			t.Fatalf("Tick %d repinned before budget spent", i+1)
		}
	}
	if !p.Tick() {
		t.Fatal("Tick at budget did not repin")
	}
	if got := p.Repins(); got != 1 {
		t.Errorf("Repins() = %d, want 1", got)
	}
	// A fresh window: three more ticks fit before the next repin.
	for i := 0; i < 3; i++ {
		if p.Tick() {
			t.Fatalf("post-repin Tick %d repinned early", i+1)
		}
	}
	if !p.Tick() {
		t.Fatal("second window's budget-exhausting Tick did not repin")
	}
	if got := p.Repins(); got != 2 {
		t.Errorf("Repins() = %d, want 2", got)
	}
}

// A pinned session holds its epoch open: Synchronize must block until the
// session repins (exiting the old parity), then complete — the budget is
// what keeps pinned readers from starving writers.
func TestPinBlocksSynchronizeUntilRepin(t *testing.T) {
	d := New()
	p := d.Pin(3, 8)
	done := make(chan struct{})
	go func() {
		d.Synchronize()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Synchronize returned past a pinned reader")
	case <-time.After(10 * time.Millisecond):
	}
	p.Repin()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Synchronize did not return after the pinned session repinned")
	}
	p.Unpin()
}

// An idle pinned session holds a writer: it does not Tick, so nothing tells
// it the epoch moved. Its first Tick after the advance repins — however much
// budget is left — and that releases the writer.
func TestPinBlocksSynchronizeUntilBudgetTick(t *testing.T) {
	d := New()
	p := d.Pin(0, 2)
	e0 := p.Epoch()
	done := make(chan struct{})
	go func() {
		d.Synchronize()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Synchronize returned past a pinned reader")
	case <-time.After(10 * time.Millisecond):
	}
	for d.Epoch() == e0 {
		time.Sleep(time.Millisecond)
	}
	if !p.Tick() {
		t.Fatal("first Tick after the epoch advance did not repin")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Synchronize did not return after the repinning Tick")
	}
	p.Unpin()
}

// With the default budget nowhere near spent, one Tick after an epoch
// advance repins, releases the blocked writer, and reports true so a caller
// such as core.Reader re-resolves its snapshot.
func TestPinFirstTickAfterAdvanceRepins(t *testing.T) {
	d := New()
	p := d.Pin(1, 1024)
	for i := 0; i < 10; i++ {
		if p.Tick() {
			t.Fatalf("Tick %d repinned with no writer and budget left", i+1)
		}
	}
	e0 := p.Epoch()
	done := make(chan struct{})
	go func() {
		d.Synchronize()
		close(done)
	}()
	for d.Epoch() == e0 {
		runtime.Gosched()
	}
	if !p.Tick() {
		t.Fatal("first Tick after the epoch advance did not repin")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Synchronize did not return after the repinning Tick")
	}
	if got := p.Epoch(); got <= e0 {
		t.Errorf("epoch after repin = %d, want > %d", got, e0)
	}
	if got := p.Repins(); got != 1 {
		t.Errorf("Repins() = %d, want 1", got)
	}
	if p.Tick() {
		t.Error("Tick after the repin repinned again with no new advance")
	}
	p.Unpin()
}

func TestUnpinReleasesReader(t *testing.T) {
	d := NewStriped(4)
	p := d.Pin(2, 16)
	if got := d.StripeReaders(d.Epoch(), 2); got != 1 {
		t.Fatalf("stripe 2 while pinned = %d, want 1", got)
	}
	p.Unpin()
	if got := d.ActiveReaders(0) + d.ActiveReaders(1); got != 0 {
		t.Fatalf("counters after Unpin = %d, want 0", got)
	}
	done := make(chan struct{})
	go func() {
		d.Synchronize()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Synchronize blocked after Unpin")
	}
}

func TestDoubleUnpinPanics(t *testing.T) {
	d := New()
	p := d.Pin(0, 16)
	p.Unpin()
	defer func() {
		if recover() == nil {
			t.Fatal("second Unpin did not panic")
		}
	}()
	p.Unpin()
}

// The repin re-enters on the same slot, so a session stays on its stripe
// across windows.
func TestRepinStaysOnStripe(t *testing.T) {
	d := NewStriped(4)
	p := d.Pin(3, 1)
	for i := 0; i < 5; i++ {
		if !p.Tick() { // budget 1: every Tick repins
			t.Fatalf("Tick %d with budget 1 did not repin", i)
		}
	}
	if got := d.StripeReaders(d.Epoch(), 3); got != 1 {
		t.Errorf("stripe 3 after repins = %d, want 1", got)
	}
	if got := p.Repins(); got != 5 {
		t.Errorf("Repins() = %d, want 5", got)
	}
	p.Unpin()
}

// The pin window epoch is observable and moves forward across a repin when
// a writer has advanced the global epoch in between.
func TestPinEpochAdvancesAcrossRepin(t *testing.T) {
	d := New()
	p := d.Pin(0, 8)
	e0 := p.Epoch()
	go d.Synchronize() // blocks on us; advances the global epoch first
	for d.Epoch() == e0 {
		time.Sleep(time.Millisecond)
	}
	p.Repin()
	if got := p.Epoch(); got <= e0 {
		t.Errorf("epoch after repin = %d, want > %d", got, e0)
	}
	p.Unpin()
}
