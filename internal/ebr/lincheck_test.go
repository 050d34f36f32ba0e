package ebr

import (
	"math"
	"runtime"
	"testing"
	"time"

	"rcuarray/internal/check"
)

// awaitAdvance blocks until a Synchronize Begun on another task has moved
// dom's epoch past before. StillRunning alone only shows that the writer has
// not returned: under load its goroutine may not have run at all, and a
// reader that enters or repins before the advance lands on the very parity
// the writer then waits out.
func awaitAdvance(dom *Domain, before uint64) {
	for dom.Epoch() == before {
		runtime.Gosched()
	}
}

// TestLincheckParityBlocksAcrossOverflow is the deterministic-schedule
// version of the overflow coverage: where TestReclamationAcrossOverflow
// races wall-clock goroutines and can only observe the *absence* of a
// violation, this test parks a reader mid-critical-section at every epoch
// across the uint64 wrap and positively asserts that Synchronize blocks on
// it — including the two wrap-edge flips MaxUint64→0 and 0→1 where a
// parity bug would let the writer skip the stalled reader's counter.
//
// Each round: reader enters and parks; writer begins Synchronize, which
// must still be running after a grace period; a fresh reader on a third
// task enters at the new parity, verifies nothing was reclaimed early, and
// exits without unblocking the writer; the parked reader finally exits and
// both ops complete. The whole schedule is driven by check.Driver, so a
// failure reproduces exactly.
func TestLincheckParityBlocksAcrossOverflow(t *testing.T) {
	const rounds = 8
	start := uint64(math.MaxUint64) - rounds/2 // wrap happens mid-sequence
	dom := NewAtEpoch(start)
	d := check.NewDriver("ebr/parity-overflow", 1, 3)
	defer d.Close()

	hold := make(chan struct{})
	entered := make(chan uint64)
	for r := 0; r < rounds; r++ {
		before := dom.Epoch()
		freed := false

		d.Begin(0, check.Op{Kind: "read"}, func(op *check.Op) {
			g := dom.Enter()
			entered <- g.Epoch()
			<-hold
			if freed {
				op.Out = 1 // reclaimed while we were mid-critical-section
			}
			g.Exit()
		})
		gotEpoch := <-entered
		if gotEpoch != before {
			t.Fatalf("round %d: guard epoch %d, want %d", r, gotEpoch, before)
		}

		d.Begin(1, check.Op{Kind: "sync"}, func(*check.Op) {
			dom.Synchronize()
			freed = true
		})
		awaitAdvance(dom, before)
		if !d.StillRunning(1, 2*time.Millisecond) {
			t.Fatalf("round %d (epoch %d): Synchronize completed past a reader mid-critical-section", r, before)
		}

		// A reader arriving at the flipped parity must neither observe a
		// premature reclamation nor unblock the writer.
		fresh := d.Do(2, check.Op{Kind: "read"}, func(op *check.Op) {
			g := dom.Enter()
			if freed {
				op.Out = 1
			}
			op.Out2 = int64(g.Epoch() & 1)
			g.Exit()
		})
		if fresh.Out != 0 {
			t.Fatalf("round %d: fresh reader observed early reclamation", r)
		}
		if fresh.Out2 == int64(before&1) {
			t.Fatalf("round %d: fresh reader entered at pre-flip parity %d", r, fresh.Out2)
		}
		if !d.StillRunning(1, time.Millisecond) {
			t.Fatalf("round %d: new-parity reader unblocked Synchronize", r)
		}

		hold <- struct{}{}
		if rd := d.Await(0); rd.Out != 0 || rd.Panic != "" {
			t.Fatalf("round %d: parked reader saw reclamation (out=%d panic=%q)", r, rd.Out, rd.Panic)
		}
		if sy := d.Await(1); sy.Panic != "" {
			t.Fatalf("round %d: Synchronize panicked: %s", r, sy.Panic)
		}
		if after := dom.Epoch(); after != before+1 { // wraps naturally
			t.Fatalf("round %d: epoch %d after Synchronize, want %d", r, after, before+1)
		}
	}
	// start + rounds wraps past zero: 2^64-4 + 8 ≡ 4 (mod 2^64).
	if e := dom.Epoch(); e != start+rounds || e >= start {
		t.Fatalf("epoch %d after wrap sequence, want %d (< start)", e, start+rounds)
	}
	if dom.Synchronizes() != rounds {
		t.Fatalf("synchronizes = %d, want %d", dom.Synchronizes(), rounds)
	}
}

// TestLincheckStripeSummation is the striped-layout analogue: readers park
// mid-critical-section on *different stripes* of the same parity, and the
// schedule releases them one at a time, asserting after every single exit
// that Synchronize is still blocked. A summation bug that early-outs on the
// first zero stripe, sums the wrong parity's stripes, or misses the last
// stripe would let the writer through while a reader is still parked — the
// deterministic release order makes each such escape reproducible.
func TestLincheckStripeSummation(t *testing.T) {
	const stripes = 4
	dom := NewStriped(stripes)
	d := check.NewDriver("ebr/stripe-summation", 1, stripes+2)
	defer d.Close()
	writer := stripes // task index of the Synchronize caller
	fresh := stripes + 1

	holds := make([]chan struct{}, stripes)
	entered := make(chan uint64, 1)
	for slot := 0; slot < stripes; slot++ {
		holds[slot] = make(chan struct{})
		slot := slot
		d.Begin(slot, check.Op{Kind: "read"}, func(op *check.Op) {
			g := dom.EnterSlot(slot)
			entered <- g.Epoch()
			<-holds[slot]
			g.Exit()
		})
		if e := <-entered; e != 0 {
			t.Fatalf("stripe-%d reader entered at epoch %d, want 0", slot, e)
		}
	}
	for slot := 0; slot < stripes; slot++ {
		if got := dom.StripeReaders(0, slot); got != 1 {
			t.Fatalf("stripe %d occupancy = %d before Synchronize, want 1", slot, got)
		}
	}

	d.Begin(writer, check.Op{Kind: "sync"}, func(*check.Op) {
		dom.Synchronize()
	})
	awaitAdvance(dom, 0)

	// Release in reverse stripe order so the summation pass repeatedly sees
	// zeros on high stripes while a low stripe is still occupied.
	for slot := stripes - 1; slot >= 0; slot-- {
		if !d.StillRunning(writer, 2*time.Millisecond) {
			t.Fatalf("Synchronize completed with stripes 0..%d still occupied", slot)
		}
		// A reader entering at the advanced epoch lands on the new parity
		// and must not unblock the writer.
		post := d.Do(fresh, check.Op{Kind: "read"}, func(op *check.Op) {
			g := dom.EnterSlot(slot)
			op.Out2 = int64(g.Epoch() & 1)
			g.Exit()
		})
		if post.Out2 != 1 {
			t.Fatalf("post-advance reader on slot %d entered parity %d, want 1", slot, post.Out2)
		}
		if !d.StillRunning(writer, time.Millisecond) {
			t.Fatalf("new-parity reader on slot %d unblocked Synchronize", slot)
		}
		close(holds[slot])
		if rd := d.Await(slot); rd.Panic != "" {
			t.Fatalf("stripe-%d reader panicked: %s", slot, rd.Panic)
		}
	}
	if sy := d.Await(writer); sy.Panic != "" {
		t.Fatalf("Synchronize panicked: %s", sy.Panic)
	}
	if e := dom.Epoch(); e != 1 {
		t.Fatalf("epoch after Synchronize = %d, want 1", e)
	}
	for parity := uint64(0); parity < 2; parity++ {
		for s := 0; s < stripes; s++ {
			if got := dom.StripeReaders(parity, s); got != 0 {
				t.Fatalf("stripe [%d][%d] = %d after schedule, want 0", parity, s, got)
			}
		}
	}
}

// TestLincheckPinnedRepinHandsOffGrace drives the pinned-session writer
// handoff deterministically: a pinned reader blocks Synchronize, repins
// (exit old parity + re-enter new parity), the writer completes even though
// the session is still live, and a second Synchronize blocks on the
// repinned session until Unpin.
func TestLincheckPinnedRepinHandsOffGrace(t *testing.T) {
	dom := NewStriped(4)
	d := check.NewDriver("ebr/pinned-repin", 1, 2)
	defer d.Close()

	step := make(chan struct{})
	pinned := make(chan struct{}) // one send after Pin, one after Repin
	d.Begin(0, check.Op{Kind: "pin"}, func(*check.Op) {
		p := dom.Pin(1, 1<<20) // budget never reached; repins are explicit
		pinned <- struct{}{}
		<-step
		p.Repin()
		pinned <- struct{}{}
		<-step
		p.Unpin()
	})
	<-pinned

	d.Begin(1, check.Op{Kind: "sync"}, func(*check.Op) {
		dom.Synchronize()
	})
	awaitAdvance(dom, 0)
	if !d.StillRunning(1, 2*time.Millisecond) {
		t.Fatal("first Synchronize completed past a pinned session")
	}
	step <- struct{}{}
	<-pinned
	if sy := d.Await(1); sy.Panic != "" {
		t.Fatalf("first Synchronize panicked: %s", sy.Panic)
	}

	// The session survived the repin and now pins the *new* parity: a
	// second grace period must block on it until Unpin.
	d.Begin(1, check.Op{Kind: "sync"}, func(*check.Op) {
		dom.Synchronize()
	})
	awaitAdvance(dom, 1)
	if !d.StillRunning(1, 2*time.Millisecond) {
		t.Fatal("second Synchronize completed past the repinned session")
	}
	step <- struct{}{}
	if rd := d.Await(0); rd.Panic != "" {
		t.Fatalf("pinned task panicked: %s", rd.Panic)
	}
	if sy := d.Await(1); sy.Panic != "" {
		t.Fatalf("second Synchronize panicked: %s", sy.Panic)
	}
	if dom.Synchronizes() != 2 {
		t.Fatalf("synchronizes = %d, want 2", dom.Synchronizes())
	}
}
