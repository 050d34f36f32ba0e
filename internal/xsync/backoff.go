package xsync

import (
	"runtime"
	"time"
)

// Backoff implements a bounded spin-then-yield waiting strategy for the
// places the paper's pseudocode says "wait for readers". The EBR writer uses
// only its spin phase before it parks until the last old-parity reader's
// exit wakes it; the QSBR Drain wait runs all three phases. (The
// cluster-wide WriteLock is a sync.Mutex and does not use it.)
//
// The zero value is ready to use. Backoff is not safe for concurrent use; it
// is a per-waiter scratch value.
type Backoff struct {
	spins int
}

// spinLimit is how many times Wait busy-loops before it starts yielding the
// processor. On a single-core host (GOMAXPROCS=1) pure spinning would starve
// the goroutine we are waiting on, so the limit is deliberately small and the
// yield path is the common one.
const spinLimit = 16

// Wait performs one waiting step: a short busy spin at first, escalating to
// runtime.Gosched, and finally to short sleeps so that a long wait does not
// monopolize an oversubscribed scheduler.
func (b *Backoff) Wait() {
	b.spins++
	switch {
	case b.spins <= spinLimit:
		spin(4 << uint(b.spins%6))
	case b.spins <= spinLimit*8:
		runtime.Gosched()
	default:
		time.Sleep(time.Microsecond)
	}
}

// Reset restores the backoff to its initial (spinning) state.
func (b *Backoff) Reset() { b.spins = 0 }

//go:noinline
func spin(n int) {
	for i := 0; i < n; i++ {
		// The loop body is empty on purpose; go:noinline keeps the
		// compiler from deleting the loop entirely.
	}
}

// Expo is a seeded, jittered exponential backoff for network-scale retries
// (milliseconds, not the nanosecond spins of Backoff). Each Next doubles the
// ceiling up to Max and returns a uniformly jittered duration in
// [ceiling/2, ceiling), so concurrent retriers decorrelate; the same seed
// yields the same sequence, which keeps retry schedules replayable alongside
// the fault-injection seeds.
//
// The zero value is usable and defaults to Base=1ms, Max=100ms, seed 1.
// Expo is a per-waiter scratch value, not safe for concurrent use.
type Expo struct {
	Base, Max time.Duration
	Seed      uint64
	attempt   uint
	rng       uint64
}

// Next returns the next backoff duration without sleeping.
func (e *Expo) Next() time.Duration {
	base, max := e.Base, e.Max
	if base <= 0 {
		base = time.Millisecond
	}
	if max <= 0 {
		max = 100 * time.Millisecond
	}
	if e.rng == 0 {
		e.rng = e.Seed
		if e.rng == 0 {
			e.rng = 1
		}
	}
	d := base << e.attempt
	if d > max || d < base { // d < base: shift overflow
		d = max
	} else {
		e.attempt++
	}
	// xorshift64 jitter: uniform in [d/2, d).
	e.rng ^= e.rng << 13
	e.rng ^= e.rng >> 7
	e.rng ^= e.rng << 17
	half := uint64(d / 2)
	if half == 0 {
		return d
	}
	return time.Duration(half + e.rng%half)
}

// Sleep blocks for the next backoff duration.
func (e *Expo) Sleep() { time.Sleep(e.Next()) }

// Reset restores the exponential schedule (the jitter stream continues).
func (e *Expo) Reset() { e.attempt = 0 }

// SpinUntil repeatedly evaluates cond with backoff until it returns true.
func SpinUntil(cond func() bool) {
	var b Backoff
	for !cond() {
		b.Wait()
	}
}

// SpinUntilTimeout repeatedly evaluates cond with backoff until it returns
// true or the deadline expires. It reports whether cond became true.
func SpinUntilTimeout(cond func() bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	var b Backoff
	for !cond() {
		if time.Now().After(deadline) {
			return cond()
		}
		b.Wait()
	}
	return true
}
