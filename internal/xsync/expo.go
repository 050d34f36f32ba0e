package xsync

import "time"

// Expo is a seeded, jittered exponential backoff for network-scale retries
// (milliseconds). Each Next doubles the ceiling up to Max and returns a
// uniformly jittered duration in [ceiling/2, ceiling), so concurrent
// retriers decorrelate; the same seed yields the same sequence, which keeps
// retry schedules replayable alongside the fault-injection seeds.
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
