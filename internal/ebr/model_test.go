package ebr

// Exhaustive model checking of Algorithm 1. The protocol is re-expressed as
// explicit atomic steps over a small shared state, and a depth-first search
// with state deduplication enumerates EVERY interleaving of a bounded
// configuration (2 readers x 2 ops, 1 serialized writer x 3 writes). At
// each reader access step the model asserts the lemmas:
//
//   - Lemma 3: the snapshot loaded after a verified record is live, and
//     stays live for the remainder of the critical section;
//   - Lemma 1: at most two snapshots are live at any reachable state;
//   - Lemma 2: all of the above also holds when the epoch counter starts at
//     the wrap-around boundary (parity is what matters, not magnitude).
//
// The writer's wait is the shipped one: it publishes a waiter word, re-sums,
// and parks until a reader decrement that takes the waited parity's count to
// zero wakes it. A lost wake-up shows as a deadlock at a non-terminal state.
//
// The model is intentionally independent of the production code — it checks
// the *algorithm* the code implements; the torture tests check the code.

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

const (
	mcReaders      = 2
	mcOpsPerReader = 2
	mcWrites       = 3
	mcMaxSnaps     = mcWrites + 1
)

// mcState is one global state of the protocol. It must be a comparable
// value type so visited-state deduplication can use it as a map key.
type mcState struct {
	epoch   uint64
	readers [2]uint8

	current uint8            // id of the published snapshot
	live    [mcMaxSnaps]bool // liveness per snapshot id
	nextID  uint8            // next snapshot id to allocate

	// writer
	wpc     uint8 // 0:clone 1:publish 2:fetchAdd 3:sum 4:storeWaiter 5:resum 6:park 7:clear 8:free
	waiter  bool  // the parked writer's wake channel is published
	woken   bool  // a wake was sent on that channel
	wWrites uint8 // completed writes
	wNew    uint8 // snapshot being installed
	wOld    uint8 // snapshot to free
	wIdx    uint8 // parity to wait on

	// readers
	r [mcReaders]mcReader
}

type mcReader struct {
	pc    uint8 // 0:loadEpoch 1:incr 2:verify 3:access 4:recheck 5:decr, 6:done-op
	ops   uint8 // completed ops
	epoch uint64
	idx   uint8
	snap  uint8
}

// mcMutation names one protocol step the meta-tests delete, to show the
// checker finds the bug that step exists to prevent.
type mcMutation uint8

const (
	mutNone       mcMutation = iota
	mutNoVerify              // readers skip the Algorithm-1 verification (line 13)
	mutNoResum               // the writer parks without re-summing after publishing waiter
	mutNoUndoWake            // the verification-failure undo decrements without waking
)

type mcChecker struct {
	visited map[mcState]bool
	mut     mcMutation
	err     error
}

func TestModelCheckEBR(t *testing.T) {
	if err := runModel(0, mutNone); err != nil {
		t.Fatal(err)
	}
}

// Lemma 2: identical exploration starting at the uint64 overflow boundary.
func TestModelCheckEBROverflow(t *testing.T) {
	if err := runModel(math.MaxUint64-1, mutNone); err != nil {
		t.Fatal(err)
	}
}

// Meta-test: the checker itself must be able to find the bug the verify
// step exists to prevent. With verification disabled (readers trust the
// epoch they loaded), some interleaving lets a writer reclaim a snapshot a
// recorded reader still holds — the exact scenario Section III-A describes.
func TestModelCheckDetectsUnverifiedBug(t *testing.T) {
	err := runModel(0, mutNoVerify)
	if err == nil {
		t.Fatal("model checker missed the unverified-read reclamation bug")
	}
	t.Logf("checker correctly reported: %v", err)
}

// Meta-test: without the re-sum, a reader whose last decrement lands between
// the writer's sum and its waiter store sends no wake, and the writer parks
// forever.
func TestModelCheckDetectsMissingResum(t *testing.T) {
	expectDeadlock(t, mutNoResum)
}

// Meta-test: without the wake on the verification-failure undo, a writer
// whose only nonzero count was a transient increment parks forever.
func TestModelCheckDetectsMissingUndoWake(t *testing.T) {
	expectDeadlock(t, mutNoUndoWake)
}

func expectDeadlock(t *testing.T, mut mcMutation) {
	t.Helper()
	err := runModel(0, mut)
	if err == nil || !strings.Contains(err.Error(), "deadlock at non-terminal state") {
		t.Fatalf("model checker missed the lost wake-up: got %v", err)
	}
	t.Logf("checker correctly reported: %v", err)
}

func runModel(epoch0 uint64, mut mcMutation) error {
	init := mcState{epoch: epoch0, nextID: 1}
	init.live[0] = true // initial snapshot id 0
	mc := &mcChecker{visited: make(map[mcState]bool), mut: mut}
	mc.explore(init)
	if mc.err == nil && len(mc.visited) == 0 {
		return fmt.Errorf("model explored no states")
	}
	return mc.err
}

func (mc *mcChecker) explore(s mcState) {
	if mc.err != nil || mc.visited[s] {
		return
	}
	mc.visited[s] = true

	if err := checkInvariants(s); err != nil {
		mc.err = err
		return
	}

	progressed := false
	// Writer step.
	if next, ok := stepWriter(s, mc.mut); ok {
		progressed = true
		mc.explore(next)
	}
	// Reader steps.
	for i := 0; i < mcReaders; i++ {
		for _, next := range stepReader(s, i, mc.mut) {
			progressed = true
			mc.explore(next)
		}
	}
	if !progressed && !isTerminal(s) {
		mc.err = fmt.Errorf("deadlock at non-terminal state %+v", s)
	}
}

func checkInvariants(s mcState) error {
	// Lemma 1: at most two live snapshots.
	liveCount := 0
	for _, l := range s.live {
		if l {
			liveCount++
		}
	}
	if liveCount > 2 {
		return fmt.Errorf("Lemma 1 violated: %d live snapshots in %+v", liveCount, s)
	}
	// The published snapshot is always live.
	if !s.live[s.current] {
		return fmt.Errorf("published snapshot %d is not live: %+v", s.current, s)
	}
	// Lemma 3: a reader holding a snapshot (pc 4 or 5: after access,
	// before decrement) must see it live.
	for i := range s.r {
		r := s.r[i]
		if (r.pc == 4 || r.pc == 5) && !s.live[r.snap] {
			return fmt.Errorf("Lemma 3 violated: reader %d holds freed snapshot %d in %+v", i, r.snap, s)
		}
	}
	return nil
}

func isTerminal(s mcState) bool {
	if !(s.wpc == 0 && s.wWrites == mcWrites) {
		return false
	}
	for _, r := range s.r {
		if !(r.pc == 0 && r.ops == mcOpsPerReader) {
			return false
		}
	}
	return true
}

// stepWriter returns the successor state if the writer can take a step.
// Writes are serialized (the paper's WriteLock), so a single writer thread
// performs mcWrites RCU_Write operations back to back.
func stepWriter(s mcState, mut mcMutation) (mcState, bool) {
	if s.wWrites == mcWrites && s.wpc == 0 {
		return s, false // all writes done
	}
	n := s
	switch s.wpc {
	case 0: // clone: allocate the next snapshot
		if s.nextID >= mcMaxSnaps {
			panic(fmt.Sprintf("model: snapshot ids exhausted: %+v", s))
		}
		n.wOld = s.current
		n.wNew = s.nextID
		n.nextID++
		n.live[n.wNew] = true
		n.wpc = 1
	case 1: // publish the clone
		n.current = s.wNew
		n.wpc = 2
	case 2: // epoch = GE.fetchAdd(1); idx = epoch % 2
		n.wIdx = uint8(s.epoch & 1)
		n.epoch = s.epoch + 1 // natural wrap at MaxUint64
		n.wpc = 3
	case 3: // sum the prior parity's readers
		if s.readers[s.wIdx] == 0 {
			n.wpc = 8
		} else {
			n.wpc = 4
		}
	case 4: // waiter.Store(fresh channel)
		n.waiter, n.woken = true, false
		n.wpc = 5
		if mut == mutNoResum {
			n.wpc = 6
		}
	case 5: // re-sum: park only if still nonzero
		if s.readers[s.wIdx] == 0 {
			n.wpc = 7
		} else {
			n.wpc = 6
		}
	case 6: // park until woken
		if !s.woken {
			return s, false // blocked
		}
		n.wpc = 7
	case 7: // waiter.Store(nil); sum again
		n.waiter, n.woken = false, false
		n.wpc = 3
	case 8: // free the old snapshot; write complete
		n.live[s.wOld] = false
		n.wWrites++
		n.wpc = 0
	}
	return n, true
}

// release decrements parity idx's count and, when it reaches zero with a
// waiter published on that parity, wakes the writer. The shipped release also
// wakes on the other parity; those wakes are spurious (the writer re-sums),
// and leaving them out keeps a missing wake from being masked by a later
// new-parity exit, which for a pinned reader may never come.
func (n *mcState) release(idx uint8, wake bool) {
	n.readers[idx]--
	if wake && n.readers[idx] == 0 && n.waiter && idx == n.wIdx {
		n.woken = true
	}
}

// stepReader returns the successor states for reader i (the verify step has
// a single deterministic outcome per state, so there is at most one).
func stepReader(s mcState, i int, mut mcMutation) []mcState {
	r := s.r[i]
	if r.pc == 0 && r.ops == mcOpsPerReader {
		return nil // all ops done
	}
	n := s
	nr := &n.r[i]
	switch r.pc {
	case 0: // epoch = GE.load
		nr.epoch = s.epoch
		nr.pc = 1
	case 1: // EpochReaders[epoch%2]++
		nr.idx = uint8(r.epoch & 1)
		n.readers[nr.idx]++
		nr.pc = 2
	case 2: // verify: GE.load == epoch ?
		if mut == mutNoVerify || s.epoch == r.epoch {
			nr.pc = 3 // linearized (or recklessly assumed so)
		} else {
			// undo and retry
			n.release(r.idx, mut != mutNoUndoWake)
			nr.pc = 0
		}
	case 3: // access: snap = GlobalSnapshot (checked live by invariant)
		nr.snap = s.current
		nr.pc = 4
	case 4: // linger inside the section (re-check hazard window)
		nr.pc = 5
	case 5: // EpochReaders[idx]--; op done
		n.release(r.idx, true)
		nr.pc = 0
		nr.ops++
	}
	return []mcState{n}
}
