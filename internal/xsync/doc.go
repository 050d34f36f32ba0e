// Package xsync provides low-level synchronization building blocks shared by
// every concurrent module in this repository: cache-line padded atomic
// counters, a seeded exponential retry backoff, and striped counters for
// low-contention statistics.
//
// Nothing in this package is specific to RCU; it exists so that the
// algorithmic packages (ebr, qsbr, core) read like the paper's pseudocode
// rather than like a pile of padding arithmetic.
package xsync
