package dist

// Seeded chaos scenarios over a real loopback cluster.
//
// Each round spins up a fresh 3-node cluster, runs a grow/write/read
// workload through one failure scenario — connection-fault storm, node kill
// mid-resize, network partition, crashed lease holder, node death between
// region flips, or kill-restart-rejoin from disk — and then audits the
// protocol invariants:
//
//   - no lost acknowledged writes: every write the driver acked reads back
//     with the same value on reachable nodes;
//   - no divergent block tables: every live node agrees with the driver on
//     the array length;
//   - the write lock is always released or expired: a fresh acquire/release
//     cycle succeeds at the end of the round;
//   - a resize that hits a dead node aborts cleanly and reads keep serving
//     the old snapshot;
//   - every node's 250ms grace-period stall watchdog stays silent, except in
//     the induced stalled-reader round, which must draw exactly one warning.
//
// Every decision descends from the seed in the subtest name, so one case
// replays alone:
//
//	go test ./internal/dist -run 'TestChaosScenarios/rotate/seed=7$' -chaos.seeds 7

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rcuarray/internal/comm"
	"rcuarray/internal/ebr"
	"rcuarray/internal/obs"
	"rcuarray/internal/workload"
)

// chaosSeeds is the one knob of TestChaosScenarios. The default pair is the
// smallest seed set whose rotation draws all six scenarios (13: partition,
// fault-storm, stale-lease, node-kill; 14: region-kill, recover, node-kill,
// fault-storm), which keeps a plain `go test ./...` near three extra seconds;
// ci.sh's chaos and recover tiers pass seeds 1..24.
var chaosSeeds = flag.String("chaos.seeds", "13,14", "comma- or space-separated seed list for TestChaosScenarios")

const (
	chaosBlock = 8
	// chaosRotateRounds and chaosRecoverRounds are the per-seed round counts
	// of the rotated and the forced-recover sets.
	chaosRotateRounds  = 4
	chaosRecoverRounds = 3
	// chaosStallSeed drives the induced stalled-reader round.
	chaosStallSeed = 7
	// roleChaos is mixed into every round seed; changing it changes which
	// scenarios seed N draws.
	roleChaos uint64 = 5
)

type chaosScenario int

const (
	chaosFaults chaosScenario = iota
	chaosKill
	chaosPartition
	chaosStaleLease
	chaosRegionKill
	chaosRecover
	numChaosScenarios
	// chaosStall sits past numChaosScenarios: it is never drawn by seed
	// rotation, because it *induces* a stall — the rotation rounds are the
	// watchdog's false-positive gate and must stay stall-free.
	chaosStall
)

func (s chaosScenario) String() string {
	return [...]string{"fault-storm", "node-kill", "partition", "stale-lease", "region-kill", "recover", "", "stalled-reader"}[s]
}

// taskSeed derives a seed from a base seed and any number of discriminators
// (role, round, index ...) with the SplitMix64 finalizer, so nearby rounds
// get decorrelated streams and one seed reproduces every RNG in a round.
func taskSeed(seed uint64, parts ...uint64) uint64 {
	h := seed
	for _, p := range parts {
		h ^= p
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

func parseChaosSeeds(t *testing.T) []uint64 {
	t.Helper()
	var seeds []uint64
	for _, f := range strings.FieldsFunc(*chaosSeeds, func(r rune) bool { return r == ',' || r == ' ' }) {
		s, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			t.Fatalf("-chaos.seeds: %v", err)
		}
		seeds = append(seeds, s)
	}
	if len(seeds) == 0 {
		t.Fatal("-chaos.seeds is empty")
	}
	return seeds
}

func TestChaosScenarios(t *testing.T) {
	seeds := parseChaosSeeds(t)
	round := func(t *testing.T, scenario chaosScenario, seed uint64) {
		if err := chaosRound(t, scenario, seed); err != nil {
			t.Fatalf("%s, round seed %d: %v", scenario, seed, err)
		}
	}
	t.Run("rotate", func(t *testing.T) {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				for r := 0; r < chaosRotateRounds; r++ {
					rseed := taskSeed(seed, roleChaos, uint64(r))
					scenario := chaosScenario(rseed % uint64(numChaosScenarios))
					t.Run(fmt.Sprintf("round=%d-%s", r+1, scenario), func(t *testing.T) {
						round(t, scenario, rseed)
					})
				}
			})
		}
	})
	// Every round forced to recover, so each seed runs a full snapshot ->
	// kill-mid-resize -> restart-from-disk -> rejoin-and-audit cycle.
	t.Run("recover", func(t *testing.T) {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				for r := 0; r < chaosRecoverRounds; r++ {
					t.Run(fmt.Sprintf("round=%d", r+1), func(t *testing.T) {
						round(t, chaosRecover, taskSeed(seed, roleChaos, uint64(r)))
					})
				}
			})
		}
	})
	t.Run("stalled-reader", func(t *testing.T) {
		round(t, chaosStall, taskSeed(chaosStallSeed, roleChaos, 0))
	})
}

// stallRecord captures one watchdog warning with the node it fired on.
type stallRecord struct {
	node int
	rep  ebr.StallReport
}

// chaosRound runs one scenario on a fresh cluster and returns the first
// broken invariant. On failure it logs the flight recorder of the driver and
// of every node.
func chaosRound(t *testing.T, scenario chaosScenario, seed uint64) (retErr error) {
	// The watchdog samples grace-period state the domain only publishes
	// under obs.On().
	withObsOn(t)
	reg := obs.NewRegistry()
	opts := Options{
		CallTimeout:    300 * time.Millisecond,
		Retries:        4,
		RetryBase:      2 * time.Millisecond,
		RetryMax:       50 * time.Millisecond,
		LockTTL:        2 * time.Second,
		AcquireTimeout: 10 * time.Second,
		Seed:           seed,
		Obs:            reg,
	}
	var inj *comm.Injector
	var part *comm.Partition
	switch scenario {
	case chaosFaults:
		inj = comm.NewInjector(comm.FaultPlan{
			Seed:  seed,
			Reset: 500, Partial: 500, Stall: 1000, // ~0.8%, ~0.8%, ~1.5%
			StallFor: 15 * time.Millisecond,
		})
		opts.Faults = inj
		opts.Retries = 6
	case chaosPartition:
		part = &comm.Partition{}
		opts.Part = part
	case chaosStaleLease:
		opts.LockTTL = 300 * time.Millisecond
	case chaosRegionKill, chaosRecover:
		// Fine-grained incremental installs: a multi-block grow publishes
		// several region flips per node, opening real between-flip windows.
		opts.RegionBlocks = 2
	case chaosStall:
		// The pinned reader blocks the install's Synchronize for ~600ms; the
		// RPC must wait that out rather than time out and abort.
		opts.CallTimeout = 3 * time.Second
	}

	// The recover scenario gives every node a data dir so resize milestones
	// are WAL'd and the victim can snapshot, crash, and rejoin.
	var dirs []string
	if scenario == chaosRecover {
		base := t.TempDir()
		dirs = make([]string, 3)
		for i := range dirs {
			dirs[i] = filepath.Join(base, fmt.Sprintf("n%d", i))
		}
	}
	var nodes []*ArrayNode
	// Deferred first, so it runs last: the registries are final once every
	// node has stopped.
	defer func() {
		if retErr != nil || t.Failed() {
			logFlightRecorder(t, reg, nodes)
		}
	}()
	var stallMu sync.Mutex
	var stalls []stallRecord
	// Runs after stop() has halted every watchdog. Outside stalled-reader
	// nothing holds a reader past the threshold, so any warning is a false
	// positive.
	defer func() {
		stallMu.Lock()
		defer stallMu.Unlock()
		if retErr == nil && scenario != chaosStall && len(stalls) != 0 {
			retErr = fmt.Errorf("stall watchdog fired %d false positive(s): %+v", len(stalls), stalls)
		}
	}()
	nodes, stop, err := SpawnLocalNodesOpts(3, func(i int) NodeOptions {
		o := NodeOptions{
			Comm:           comm.NodeConfig{FrameTimeout: 2 * time.Second},
			StallThreshold: 250 * time.Millisecond,
			OnStall: func(rep ebr.StallReport) {
				stallMu.Lock()
				stalls = append(stalls, stallRecord{node: i, rep: rep})
				stallMu.Unlock()
			},
		}
		if dirs != nil {
			o.DataDir = dirs[i]
		}
		return o
	})
	if err != nil {
		return fmt.Errorf("spawn: %w", err)
	}
	defer stop()
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.Addr()
	}
	d, err := ConnectOpts(addrs, chaosBlock, opts)
	if err != nil {
		return fmt.Errorf("connect: %w", err)
	}
	defer d.Close()

	rng := workload.NewRNG(taskSeed(seed, roleChaos, 1))
	acked := map[int]int64{}
	mixedOps := func(n int) error {
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0:
				if err := d.Grow(chaosBlock); err != nil {
					return fmt.Errorf("grow: %w", err)
				}
			case 1:
				if d.Len() == 0 {
					continue
				}
				idx := rng.Intn(d.Len())
				v := int64(taskSeed(seed, uint64(idx), uint64(i)))
				if err := d.Write(idx, v); err != nil {
					return fmt.Errorf("write(%d): %w", idx, err)
				}
				acked[idx] = v
			default:
				if d.Len() == 0 {
					continue
				}
				idx := rng.Intn(d.Len())
				got, err := d.Read(idx)
				if err != nil {
					return fmt.Errorf("read(%d): %w", idx, err)
				}
				if want, wrote := acked[idx]; wrote && got != want {
					return fmt.Errorf("read(%d) = %d, want acked %d", idx, got, want)
				}
			}
		}
		return nil
	}

	// Phase 1: healthy warm-up so every scenario starts from a populated,
	// multi-block array.
	if err := d.Grow(chaosBlock * 6); err != nil {
		return fmt.Errorf("warm-up grow: %w", err)
	}
	if err := mixedOps(60); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	// Phase 2: the scenario's fault window.
	dead := -1
	switch scenario {
	case chaosFaults:
		// Faults are live from the start; just keep the pressure on. All
		// operations must still succeed — retries absorb the schedule.
		if err := mixedOps(120); err != nil {
			return fmt.Errorf("under fault storm: %w", err)
		}
		if inj.Total() == 0 {
			return fmt.Errorf("fault plan injected nothing")
		}
		t.Logf("injected faults: %d (plan seed %d)", inj.Total(), seed)
	case chaosKill:
		// Kill a block owner (never node 0 — it hosts the lock service),
		// then resize into the hole: the grow must abort cleanly and the
		// old snapshot must keep serving.
		dead = 1 + int(taskSeed(seed, 2)%2)
		oldLen := d.Len()
		nodes[dead].Close()
		if err := d.Grow(chaosBlock); err == nil {
			return fmt.Errorf("grow succeeded with node %d dead", dead)
		}
		if d.Len() != oldLen {
			return fmt.Errorf("aborted grow changed Len: %d -> %d", oldLen, d.Len())
		}
	case chaosPartition:
		oldLen := d.Len()
		part.Sever()
		if err := d.Grow(chaosBlock); err == nil {
			return fmt.Errorf("grow crossed an open partition")
		}
		if d.Len() != oldLen {
			return fmt.Errorf("partitioned grow changed Len: %d -> %d", oldLen, d.Len())
		}
		part.Heal()
		if err := mixedOps(40); err != nil {
			return fmt.Errorf("after heal: %w", err)
		}
	case chaosStaleLease:
		// A driver "crashes" holding the lease; once the TTL lapses the
		// next resize supersedes it and the stale token is fenced out.
		staleToken, err := d.AcquireLock()
		if err != nil {
			return fmt.Errorf("acquire: %w", err)
		}
		time.Sleep(opts.LockTTL + 100*time.Millisecond)
		if err := mixedOps(40); err != nil {
			return fmt.Errorf("after lease expiry: %w", err)
		}
		if err := d.ReleaseLock(staleToken); err == nil {
			return fmt.Errorf("superseded token still released the lock")
		}
	case chaosRegionKill:
		// Kill a block owner between the region flips of a multi-region
		// grow: the resize must abort, and every survivor must converge
		// fully-old — never a torn mix of old and new regions.
		dead = 1 + int(taskSeed(seed, 3)%2)
		oldLen := d.Len()
		oldTable, err := d.NodeTable(0)
		if err != nil {
			return fmt.Errorf("pre-kill table audit: %w", err)
		}
		closeBetweenFlips(nodes[dead])
		if err := d.Grow(chaosBlock * 8); err == nil {
			return fmt.Errorf("multi-region grow succeeded with node %d dying between flips", dead)
		}
		if d.Len() != oldLen {
			return fmt.Errorf("aborted region grow changed Len: %d -> %d", oldLen, d.Len())
		}
		for node := 0; node < d.Nodes(); node++ {
			if node == dead {
				continue
			}
			got, err := d.NodeTable(node)
			if err != nil {
				return fmt.Errorf("NodeTable(%d): %w", node, err)
			}
			if !tablesEqual(got, oldTable) {
				return fmt.Errorf("survivor %d torn after region kill: %v, want %v", node, got, oldTable)
			}
		}
	case chaosRecover:
		// Kill-restart-rejoin: snapshot every node (the durability line for
		// element data), kill a block owner between the region flips of a
		// grow, abort on the survivors, then bring the victim back on its old
		// address with its old data dir. After rejoin NO write may be lost and
		// no aborted table may resurrect — the audit below runs with dead=-1,
		// so reads of the victim's blocks get no unreachability exemption.
		for i := 0; i < d.Nodes(); i++ {
			if _, err := d.SnapshotNode(i); err != nil {
				return fmt.Errorf("snapshot node %d: %w", i, err)
			}
		}
		dead = 1 + int(taskSeed(seed, 4)%2)
		oldLen := d.Len()
		oldTable, err := d.NodeTable(0)
		if err != nil {
			return fmt.Errorf("pre-kill table audit: %w", err)
		}
		deadAddr := nodes[dead].Addr()
		closeBetweenFlips(nodes[dead])
		if err := d.Grow(chaosBlock * 8); err == nil {
			return fmt.Errorf("multi-region grow succeeded with node %d dying between flips", dead)
		}
		if d.Len() != oldLen {
			return fmt.Errorf("aborted region grow changed Len: %d -> %d", oldLen, d.Len())
		}
		restartNode(t, deadAddr, dirs[dead])
		// The rejoined node adopted the survivors' rollback, not its own
		// replayed partial install.
		gotTable, err := d.NodeTable(dead)
		if err != nil {
			return fmt.Errorf("NodeTable(%d) after rejoin: %w", dead, err)
		}
		if !tablesEqual(gotTable, oldTable) {
			return fmt.Errorf("rejoined node %d resurrected aborted table: %v, want %v", dead, gotTable, oldTable)
		}
		stats, err := d.Stats()
		if err != nil {
			return fmt.Errorf("stats after rejoin: %w", err)
		}
		if stats[dead].Recoveries == 0 {
			return fmt.Errorf("rejoined node %d reports no recovery", dead)
		}
		t.Logf("node %d rejoined: %d WAL records replayed", dead, stats[dead].WALReplayed)
		dead = -1 // fully healed: the audit gets no unreachability exemption
		// The healed cluster keeps serving and resizing.
		if err := mixedOps(40); err != nil {
			return fmt.Errorf("after rejoin: %w", err)
		}
	case chaosStall:
		// Induced stalled reader: pin a reader inside a block owner's EBR
		// domain, then grow. The install's Synchronize on the victim cannot
		// finish until the release, so the armed watchdog must fire exactly
		// once, naming the victim's (slot, entry site), and the grow must
		// complete normally once the reader lets go.
		const stallSlot = 3
		victim := 1 + int(taskSeed(seed, 5)%2)
		release := nodes[victim].holdReader(stallSlot)
		relTimer := time.AfterFunc(600*time.Millisecond, release)
		if err := d.Grow(chaosBlock); err != nil {
			relTimer.Stop()
			release()
			return fmt.Errorf("grow under stalled reader: %w", err)
		}
		stallMu.Lock()
		got := append([]stallRecord(nil), stalls...)
		stallMu.Unlock()
		if len(got) != 1 {
			return fmt.Errorf("stalled reader drew %d warnings, want exactly 1 (%+v)", len(got), got)
		}
		r := got[0]
		if r.node != victim {
			return fmt.Errorf("stall warning blamed node %d, want %d", r.node, victim)
		}
		if r.rep.Slot != stallSlot || r.rep.Site != "enter" {
			return fmt.Errorf("stall warning named slot %d via %s, want slot %d via enter", r.rep.Slot, r.rep.Site, stallSlot)
		}
		t.Logf("stall warning named node %d slot %d via %s after %v (pinned >= %v)",
			r.node, r.rep.Slot, r.rep.Site,
			time.Duration(r.rep.GraceAgeNanos), time.Duration(r.rep.PinAgeNanos))
		// The blamed node's grace histogram, install spans and rcu.stall
		// trace instant.
		t.Log(flightRecorder(fmt.Sprintf("node %d, stalled reader", victim), nodes[victim].Obs()))
		if err := mixedOps(40); err != nil {
			return fmt.Errorf("after stall release: %w", err)
		}
	}

	// Phase 3: invariant audit.
	return chaosAudit(t, d, dead, acked)
}

// closeBetweenFlips makes n die right after it publishes the first region of
// its next install. Close joins handler goroutines, so it cannot run on the
// hook's goroutine: the hook fires it async and parks until the listener is
// down — by then Close has also severed the live connections, so the
// in-flight install cannot be acknowledged.
func closeBetweenFlips(n *ArrayNode) {
	addr := n.Addr()
	var once sync.Once
	n.SetInstallHook(func(k, total int) {
		if k != 0 {
			return
		}
		once.Do(func() {
			go n.Close()
			for i := 0; i < 1000; i++ {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					break
				}
				c.Close()
				time.Sleep(2 * time.Millisecond)
			}
			time.Sleep(10 * time.Millisecond)
		})
	})
}

// holdReader enters the node's EBR domain on the given reader slot and
// returns the release. It is the stalled-reader fault: while held, any
// install's Synchronize on this node cannot complete, so an armed watchdog
// must fire — exactly once — naming this slot.
func (n *ArrayNode) holdReader(slot int) func() {
	//rcuvet:ignore fault-injection hook: the leak is the fault; the caller releases via the returned closure
	g := n.dom.EnterSlot(slot)
	return g.Exit
}

// chaosAudit checks the cross-node invariants on whatever cluster state the
// scenario left behind. dead is the index of a killed node, or -1.
func chaosAudit(t *testing.T, d *Driver, dead int, acked map[int]int64) error {
	// No divergent block tables across live nodes.
	for node := 0; node < d.Nodes(); node++ {
		if node == dead {
			continue
		}
		got, err := d.NodeLen(node)
		if err != nil {
			return fmt.Errorf("NodeLen(%d): %w", node, err)
		}
		if got != d.Len() {
			return fmt.Errorf("node %d table diverged: %d elements, driver sees %d", node, got, d.Len())
		}
	}
	// No lost acknowledged writes. Elements owned by a killed node are
	// unreachable (reads fail) — that is unavailability, not loss — but any
	// read that *succeeds* must return the acked value.
	unreachable := 0
	for idx, want := range acked {
		got, err := d.Read(idx)
		if err != nil {
			if dead >= 0 && comm.IsTransient(err) {
				unreachable++
				continue
			}
			return fmt.Errorf("read(%d) during audit: %w", idx, err)
		}
		if got != want {
			return fmt.Errorf("lost acked write: read(%d) = %d, want %d", idx, got, want)
		}
	}
	// The write lock is released or expired: a fresh cycle succeeds.
	token, err := d.AcquireLock()
	if err != nil {
		return fmt.Errorf("lock not acquirable after round: %w", err)
	}
	if err := d.ReleaseLock(token); err != nil {
		return fmt.Errorf("lock not releasable after round: %w", err)
	}
	t.Logf("audit: len=%d acked=%d unreachable=%d — invariants hold", d.Len(), len(acked), unreachable)
	return nil
}

// flightRecorderTail is how many trailing events per trace track the flight
// recorder prints.
const flightRecorderTail = 12

// logFlightRecorder logs the driver's and every node's registry — counters,
// resize track, install/abort spans, fenced rejections, grace-period
// histogram — and writes the driver's trace rings as Perfetto JSON into a
// directory that outlives the test.
func logFlightRecorder(t *testing.T, driver *obs.Registry, nodes []*ArrayNode) {
	t.Log(flightRecorder("driver", driver))
	for i, n := range nodes {
		t.Log(flightRecorder(fmt.Sprintf("node %d", i), n.Obs()))
	}
	dir, err := os.MkdirTemp("", "rcuarray-chaos-")
	if err != nil {
		t.Logf("flight recorder: %v", err)
		return
	}
	path := filepath.Join(dir, "driver.trace.json")
	var buf bytes.Buffer
	if err := driver.Tracer().WriteTrace(&buf); err != nil {
		t.Logf("flight recorder: %v", err)
		return
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Logf("flight recorder: %v", err)
		return
	}
	t.Logf("flight recorder: wrote %s (load in Perfetto)", path)
}

// flightRecorder renders reg as text: its metrics in Prometheus text format,
// then the last flightRecorderTail events of each trace track.
func flightRecorder(label string, reg *obs.Registry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder (%s):\n", label)
	_ = reg.WritePrometheus(&b)
	byTrack := map[[2]int][]obs.TraceEvent{}
	var tracks [][2]int
	for _, ev := range reg.Tracer().Events() {
		k := [2]int{ev.Pid, ev.Tid}
		if _, seen := byTrack[k]; !seen {
			tracks = append(tracks, k)
		}
		byTrack[k] = append(byTrack[k], ev)
	}
	for _, k := range tracks {
		evs := byTrack[k]
		if len(evs) > flightRecorderTail {
			evs = evs[len(evs)-flightRecorderTail:]
		}
		fmt.Fprintf(&b, "track pid=%d tid=%d (last %d events):\n", k[0], k[1], len(evs))
		for _, ev := range evs {
			fmt.Fprintf(&b, "  +%-12dns %c %s arg=%d\n", ev.TsNanos, ev.Phase, ev.Name, ev.Arg)
		}
	}
	return b.String()
}
