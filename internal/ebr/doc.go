// Package ebr implements the paper's novel Epoch-Based Reclamation variant
// that requires no thread-local or task-local storage (Section III-A,
// Algorithm 1).
//
// Classic EBR keeps one epoch record per thread; a reclaimer scans them.
// Chapel (and, as the paper notes in its future-work section, Go) exposes no
// reliable TLS, so readers here announce themselves *collectively*: a Domain
// holds a monotonically increasing GlobalEpoch and a pair of atomic counters,
// EpochReaders[2], indexed by the epoch's parity. A reader
//
//  1. loads the epoch e,
//  2. increments EpochReaders[e%2],
//  3. verifies the epoch is still e (otherwise undoes the increment and
//     retries).
//
// The verification makes the increment the linearization point: after it
// succeeds, any writer that advances the epoch past e is guaranteed to wait
// on the reader's counter before reclaiming the snapshot associated with e.
// Because at most two snapshots are ever live under the cluster-wide
// WriteLock (paper Lemma 1), two counters suffice, and parity is preserved
// across integer overflow of the epoch (Lemma 2) — see overflow_test.go.
//
// The domain is decoupled from RCUArray exactly as the paper's future work
// proposes, so it can protect arbitrary data: publish it through a Cell,
// whose Swap yields the old value only after a grace period (see cell.go).
package ebr
