package dist

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rcuarray/internal/durable"
	"rcuarray/internal/region"
)

// Every sequence of up to six records over two fences, two epochs and
// {step 0 of 2, step 1 of 2, abort}, folded through next from the zero state
// (states deduplicated by the depth they were first expanded at), keeps the
// fencing invariants on every step.
func TestResizeStateNextExhaustive(t *testing.T) {
	const depth, total = 6, 2
	var alphabet []walRecord
	for f := uint64(1); f <= 2; f++ {
		for e := uint64(1); e <= 2; e++ {
			alphabet = append(alphabet,
				walRecord{Kind: recWALInstall, Fence: f, Epoch: e, Step: 0, Total: total},
				walRecord{Kind: recWALInstall, Fence: f, Epoch: e, Step: 1, Total: total},
				walRecord{Kind: recWALAbort, Fence: f, Epoch: e})
		}
	}
	pairBit := func(rec walRecord) uint8 { return 1 << ((rec.Fence-1)*2 + rec.Epoch - 1) }
	type node struct {
		st      resizeState
		table   int   // alphabet index of the record whose table is published; -1 = initial
		aborted uint8 // one bit per (fence, epoch) pair an abort has been delivered for
	}
	seen := make(map[node]int)
	var walk func(nd node, path []int)
	walk = func(nd node, path []int) {
		if d, ok := seen[nd]; ok && d <= len(path) {
			return
		}
		seen[nd] = len(path)
		if len(path) == depth {
			return
		}
		for i, rec := range alphabet {
			next, v := nd.st.next(rec)
			fail := func(format string, args ...any) {
				t.Fatalf("after records %v, record %d %+v (verdict %d): %s",
					path, i, rec, v, fmt.Sprintf(format, args...))
			}
			if next.maxFence < nd.st.maxFence {
				fail("maxFence fell from %d to %d", nd.st.maxFence, next.maxFence)
			}
			if !v.logged() && next != nd.st {
				fail("non-logged verdict changed the state: %+v -> %+v", nd.st, next)
			}
			if rec.Kind == recWALInstall && nd.aborted&pairBit(rec) != 0 && v.publishes() {
				fail("install of an aborted (fence, epoch) published")
			}
			if next.regionMilestone > total {
				fail("regionMilestone %d exceeds the plan's %d steps", next.regionMilestone, total)
			}
			movedApplied := next.appliedFence != nd.st.appliedFence || next.appliedEpoch != nd.st.appliedEpoch
			if movedApplied && v != vCommit && v != vRollback {
				fail("applied pair moved from (%d, %d) to (%d, %d)",
					nd.st.appliedFence, nd.st.appliedEpoch, next.appliedFence, next.appliedEpoch)
			}
			child := node{st: next, table: nd.table, aborted: nd.aborted}
			if v.publishes() {
				child.table = i
			}
			if rec.Kind == recWALAbort {
				child.aborted |= pairBit(rec)
			}
			walk(child, append(path[:len(path):len(path)], i))
		}
	}
	walk(node{table: -1}, nil)
	t.Logf("%d states explored to depth %d", len(seen), depth)
}

// liveResizeNode is one configured durable node, driven straight through its
// install and abort handlers.
type liveResizeNode struct {
	t   *testing.T
	n   *ArrayNode
	dir string
}

func newLiveResizeNode(t *testing.T, seed uint64) *liveResizeNode {
	_, nodes, dirs := spawnDurableCluster(t, 1, 8, chaosOpts(seed))
	return &liveResizeNode{t: t, n: nodes[0], dir: dirs[0]}
}

// state reads the node's resize state and published table together.
func (l *liveResizeNode) state() (resizeState, []BlockRef) {
	l.n.mu.Lock()
	defer l.n.mu.Unlock()
	return l.n.rs, l.n.snap.Load().table
}

// check requires the live state to equal the replay of the node's WAL from
// wal-1: the state changes only together with a WAL record.
func (l *liveResizeNode) check(what string) {
	l.t.Helper()
	payloads, torn, err := durable.ReadFile(walPath(l.dir, 1))
	if err != nil || torn {
		l.t.Fatalf("%s: reading WAL: torn=%v %v", what, torn, err)
	}
	var st replayState
	if k := replayWALRecords(payloads, &st); k != len(payloads) {
		l.t.Fatalf("%s: replay folded %d of %d records", what, k, len(payloads))
	}
	rs, table := l.state()
	if rs != st.resizeState || !slices.Equal(table, st.table) {
		l.t.Fatalf("%s: live state %+v (%d blocks) != replay %+v (%d blocks)",
			what, rs, len(table), st.resizeState, len(st.table))
	}
}

func (l *liveResizeNode) install(q installReq) error {
	_, err := l.n.handleInstall(q.encode())
	l.check(fmt.Sprintf("install (%d, %d)", q.Fence, q.Epoch))
	return err
}

func (l *liveResizeNode) abort(q installReq) error {
	_, err := l.n.handleAbort(q.encode())
	l.check(fmt.Sprintf("abort (%d, %d)", q.Fence, q.Epoch))
	return err
}

// The live handlers and WAL replay run one transition function, so after any
// sequence of installs and aborts — fresh, stale, duplicate, stragglers after
// an abort, and multi-step installs interrupted from inside the install hook
// by an abort or a superseding install — the node's state and table equal the
// replay of its own WAL. When the WAL append fails, neither moves.
func TestLiveStateEqualsReplay(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			l := newLiveResizeNode(t, uint64(seed))
			l.check("fresh node")
			rng := rand.New(rand.NewSource(seed))
			table := func(fence, epoch uint64) []BlockRef {
				tb := make([]BlockRef, 1+rng.Intn(6))
				for i := range tb {
					// A foreign node id: the handlers never free these segments.
					tb[i] = BlockRef{Node: 1, Seg: fence<<16 | epoch<<8 | uint64(i)}
				}
				return tb
			}
			withRegions := func(q installReq) installReq {
				steps := 1 + rng.Intn(3)
				if steps > len(q.Table) {
					steps = len(q.Table)
				}
				for i := 0; steps > 1 && i < steps; i++ {
					q.Regions = append(q.Regions, region.Step{
						Lo: len(q.Table) * i / steps, Hi: len(q.Table) * (i + 1) / steps})
				}
				return q
			}
			var fence, epoch uint64
			var sent []installReq
			fresh := func(newFence bool) installReq {
				if newFence || fence == 0 {
					fence, epoch = fence+1, 0
				}
				epoch++
				q := withRegions(installReq{Fence: fence, Epoch: epoch, Table: table(fence, epoch)})
				sent = append(sent, q)
				return q
			}
			rollback := func(q installReq) installReq {
				return installReq{Fence: q.Fence, Epoch: q.Epoch, Table: table(q.Fence, 0)}
			}
			// inHook, when set, is delivered from inside the install hook after
			// region step 0 of a multi-step install.
			var inHook func()
			l.n.SetInstallHook(func(step, total int) {
				l.check(fmt.Sprintf("install hook, step %d of %d", step, total))
				if f := inHook; f != nil && step == 0 {
					inHook = nil
					f()
				}
			})
			multiStep := func() installReq {
				q := fresh(rng.Intn(2) == 0)
				if len(q.Regions) < 2 {
					q.Table = append(q.Table, table(q.Fence, q.Epoch+100)...)
					q.Regions = []region.Step{{Lo: 0, Hi: 1}, {Lo: 1, Hi: len(q.Table)}}
					sent[len(sent)-1] = q
				}
				return q
			}
			for op := 0; op < 150; op++ {
				switch rng.Intn(8) {
				case 0, 1: // fresh install, at a new fence or a new epoch of this one
					l.install(fresh(rng.Intn(2) == 0))
				case 2: // stale: an older fence
					if fence > 1 {
						f := uint64(1 + rng.Intn(int(fence-1)))
						l.install(withRegions(installReq{Fence: f, Epoch: 50, Table: table(f, 50)}))
					}
				case 3: // duplicate of an earlier install
					if len(sent) > 0 {
						l.install(sent[rng.Intn(len(sent))])
					}
				case 4: // abort of an earlier (or the latest) resize
					if len(sent) > 0 {
						q := sent[len(sent)-1]
						if rng.Intn(2) == 0 {
							q = sent[rng.Intn(len(sent))]
						}
						l.abort(rollback(q))
					}
				case 5: // straggler: the latest install, delivered after its abort
					if len(sent) > 0 {
						q := sent[len(sent)-1]
						l.abort(rollback(q))
						if l.install(q) == nil {
							t.Fatalf("straggler install (%d, %d) after its abort succeeded", q.Fence, q.Epoch)
						}
					}
				case 6: // multi-step install aborted between its region flips
					q := multiStep()
					inHook = func() { l.abort(rollback(q)) }
					if l.install(q) == nil {
						t.Fatalf("install (%d, %d) aborted mid-flight succeeded", q.Fence, q.Epoch)
					}
				case 7: // multi-step install superseded between its region flips
					q := multiStep()
					inHook = func() { l.install(fresh(true)) }
					if l.install(q) == nil {
						t.Fatalf("install (%d, %d) superseded mid-flight succeeded", q.Fence, q.Epoch)
					}
				}
				inHook = nil
			}
			t.Logf("commits=%d rollbacks=%d rejected=%d region flips=%d WAL records=%d",
				l.n.installs.Load(), l.n.aborts.Load(), l.n.fenced.Load(),
				l.n.regionFlips.Load(), l.n.walRecords.Load())
		})
	}

	t.Run("WALFailure", func(t *testing.T) {
		l := newLiveResizeNode(t, 5)
		base := []BlockRef{{Node: 1, Seg: 1}, {Node: 1, Seg: 2}}
		if err := l.install(installReq{Fence: 1, Epoch: 1, Table: base}); err != nil {
			t.Fatalf("install: %v", err)
		}
		l.n.mu.Lock()
		l.n.wal.Close() // every later append fails
		l.n.mu.Unlock()
		rs, table := l.state()
		unchanged := func(what string) {
			t.Helper()
			if gotRS, gotTable := l.state(); gotRS != rs || !slices.Equal(gotTable, table) {
				t.Fatalf("%s with a failing WAL moved the node: %+v -> %+v (%d -> %d blocks)",
					what, rs, gotRS, len(table), len(gotTable))
			}
		}
		grown := append(append([]BlockRef(nil), base...), BlockRef{Node: 1, Seg: 3})
		if err := l.install(installReq{Fence: 2, Epoch: 1, Table: grown}); err == nil {
			t.Fatal("install succeeded with a failing WAL")
		}
		unchanged("install")
		if err := l.abort(installReq{Fence: 2, Epoch: 1, Table: base}); err == nil {
			t.Fatal("abort succeeded with a failing WAL")
		}
		unchanged("abort")
	})
}
