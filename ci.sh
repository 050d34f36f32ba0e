#!/usr/bin/env sh
# CI pipeline. Tiers are cumulative; run the highest tier you have time for.
#
#   ./ci.sh            tier-1   (gofmt -l over tracked .go files outside
#                                testdata/ that exist on disk, failing with
#                                the file list when it is non-empty and with a
#                                ci: line when gofmt errors; build + vet +
#                                rcuvet + full test suite, then vet + tests
#                                of the nested benchmark/ module; no
#                                race detector; rcuvet is the in-repo static
#                                analysis suite — see DESIGN.md "Static
#                                analysis". rcuvet runs with -time so the
#                                per-analyzer wall cost stays visible, and a
#                                failure names the offending analyzer(s))
#   ./ci.sh race       tier-1.5 (adds go test -race over the -short subset:
#                                every package's tests with the long stress
#                                loops trimmed, including the lincheck
#                                suites, under the race detector; then the
#                                EBR park/wake tests, full length, 20 times
#                                under the race detector)
#   ./ci.sh obs        observability tier: one traced pass of the benchmark
#                                (benchmark/run.sh --workload index_ebr
#                                --trace 1) prints obs.overhead_pct and its
#                                base, with no threshold: timing is judged by
#                                the benchmark's own --compare, not here. Then
#                                the functional gate: a 3-node traced
#                                workload must merge into a timeline with >= 1
#                                cross-node flow arrow and 0 orphan spans. (The
#                                stall watchdog's gates live in
#                                TestChaosScenarios: every rotated round
#                                asserts 0 warnings, the stalled-reader round
#                                exactly one.)
#   ./ci.sh chaos      fault tier: TestChaosScenarios/rotate over a fixed
#                                seed list under -race (seeded fault schedules
#                                against a loopback cluster: connection-fault
#                                storms, node kills mid-resize, partitions,
#                                stale lease holders, deaths between region
#                                flips, kill-restart-rejoin; stall watchdogs
#                                armed, 0 warnings) plus go test -run Chaos
#                                -race -short
#   ./ci.sh recover    durability tier: TestChaosScenarios/recover (every
#                                round forced to the recover scenario:
#                                snapshot, kill a node mid-resize, restart it
#                                from disk, audit every acked write with no
#                                unreachability exemption) over the fixed seed
#                                list, then the durability/replay/torn-file
#                                test suite, all under -race
#   ./ci.sh full       tier-1 + tier-1.5 + chaos
#
# No tier holds a timing constant or writes into the tree: performance is the
# benchmark's job (BENCHMARK.json, benchmark/README.md), allocation budgets
# are a tier-1 test (internal/comm TestAllocBudgets), and scratch files go to
# ${TMPDIR:-/tmp}.
set -eu

TMP="${TMPDIR:-/tmp}"

versions() {
	echo "--- $1: tool versions"
	go version
}

tier1() {
	versions tier-1
	# Fixtures under testdata/ keep deliberate layouts, so they are not checked.
	# A tracked file deleted but not yet staged is skipped, not passed on: gofmt
	# would fail on it, and under set -e that failure ends the run silently.
	echo '--- tier-1: gofmt -l (tracked .go files outside testdata/)'
	if ! unformatted=$(git ls-files '*.go' | grep -v '/testdata/' |
		while read -r f; do if [ -e "$f" ]; then echo "$f"; fi; done | xargs gofmt -l); then
		echo 'ci: gofmt -l failed with the error above; the format gate cannot run.' >&2
		exit 1
	fi
	if [ -n "$unformatted" ]; then
		echo "$unformatted"
		echo 'ci: gofmt -l lists the files above; format them with gofmt -w.' >&2
		exit 1
	fi
	echo '--- tier-1: go build ./...'
	go build ./...
	echo '--- tier-1: go vet ./...'
	go vet ./...
	echo '--- tier-1: rcuvet -time ./... (RCU/EBR invariant + dataflow-protocol analyzers)'
	if ! go build -o "$TMP/rcuvet.ci" ./cmd/rcuvet; then
		echo 'ci: cmd/rcuvet failed to build; the static-analysis gate cannot run.' >&2
		echo 'ci: fix the build (go build ./cmd/rcuvet) before merging.' >&2
		exit 1
	fi
	# No pipefail under `set -eu`, so capture to a file instead of piping:
	# a pipe into tee would mask rcuvet's exit status.
	if ! "$TMP/rcuvet.ci" -time ./... >"$TMP/rcuvet.ci.out"; then
		cat "$TMP/rcuvet.ci.out"
		offenders=$(sed -n 's/.*\[\([a-z]*\)\].*/\1/p' "$TMP/rcuvet.ci.out" | sort -u | tr '\n' ' ')
		echo "ci: rcuvet failed — offending analyzer(s): ${offenders:-unknown}" >&2
		echo 'ci: reproduce one in isolation with: go run ./cmd/rcuvet -only <name> ./...' >&2
		exit 1
	fi
	echo '--- tier-1: go test ./...'
	go test ./...
	# benchmark/ is its own module (replace rcuarray => ../) that imports
	# rcuarray/internal/...: `./...` above does not reach it, so without this
	# a root change that breaks it is noticed only by the benchmark pipeline.
	echo '--- tier-1: go -C benchmark vet ./... && go -C benchmark test ./...'
	go -C benchmark vet ./...
	go -C benchmark test ./...
}

tier15() {
	versions tier-1.5
	echo '--- tier-1.5: go test -race -short ./...'
	go test -race -short ./...
	echo "--- tier-1.5: go test -race -count=20 -run 'ParkWake|PinFirstTick' ./internal/ebr/"
	go test -race -count=20 -run 'ParkWake|PinFirstTick' ./internal/ebr/
}

obs() {
	versions obs
	# Reported, not gated: on a shared 2-core host the reading's run-to-run
	# spread is wider than any budget worth setting (EXPERIMENTS.md
	# "Observability overhead"), so a threshold here would only decide whether
	# the functional gates below get to run.
	echo '--- obs: benchmark/run.sh --workload index_ebr --trace 1 (obs.overhead_pct and its base, no threshold)'
	bash benchmark/run.sh --workload index_ebr --trace 1 >"$TMP/rcu_obs_ledger.txt"
	grep '^  obs\.' "$TMP/rcu_obs_ledger.txt"
	echo "--- obs: 3-node traced workload -> $TMP/rcu_cluster_trace.json (flow-arrow / orphan-span gate)"
	go build -o "$TMP/rcudist.ci" ./cmd/rcudist
	"$TMP/rcudist.ci" -spawn 3 -grow 16384 -ops 2000 -resizes 4 \
		-trace-out "$TMP/rcu_cluster_trace.json" | tee "$TMP/rcu_trace_run.txt"
	awk '/^wrote .*flow_arrows=/ {
		seen = 1
		for (i = 1; i <= NF; i++) {
			if ($i ~ /^flow_arrows=/)  { sub(/flow_arrows=/, "", $i);  flows = $i + 0 }
			if ($i ~ /^orphan_spans=/) { sub(/orphan_spans=/, "", $i); orphans = $i + 0 }
		}
	}
	END {
		if (!seen)      { print "ci: rcudist never reported trace stats" > "/dev/stderr"; exit 1 }
		if (flows < 1)  { printf "ci: merged trace has %d flow arrows, want >= 1\n", flows > "/dev/stderr"; exit 1 }
		if (orphans)    { printf "ci: merged trace has %d orphan spans, want 0\n", orphans > "/dev/stderr"; exit 1 }
		printf "obs: trace gate ok (%d flow arrows, 0 orphan spans)\n", flows
	}' "$TMP/rcu_trace_run.txt"
}

# Fixed seed list for the chaos and recover tiers; one seed replays with
#   go test ./internal/dist -run 'TestChaosScenarios/rotate/seed=N$' -chaos.seeds N
CHAOS_SEEDS="1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24"

chaos() {
	versions chaos
	echo "--- chaos: go test -race -run TestChaosScenarios/rotate, seeds: $CHAOS_SEEDS"
	go test -race -run 'TestChaosScenarios/rotate' ./internal/dist -args -chaos.seeds "$CHAOS_SEEDS"
	# The rotate pass above, the recover tier and tier-1 already run every
	# TestChaosScenarios case; this pass covers the other Chaos tests.
	echo '--- chaos: go test -run Chaos -skip TestChaosScenarios -race -short ./...'
	go test -run Chaos -skip TestChaosScenarios -race -short ./...
}

recover() {
	versions recover
	# Every round forced to the recover scenario, so each seed exercises a
	# full snapshot -> kill-mid-resize -> restart-from-disk -> rejoin-and-audit
	# cycle.
	echo "--- recover: go test -race -run TestChaosScenarios/recover, seeds: $CHAOS_SEEDS"
	go test -race -run 'TestChaosScenarios/recover' ./internal/dist -args -chaos.seeds "$CHAOS_SEEDS"
	# The filter names the suites it must keep: a renamed test that no longer
	# matches drops out of this tier silently, so widen it with the rename.
	echo '--- recover: go test -race durability/replay/state-machine/torn-file suite'
	go test -race -run 'Durable|ReplayState|ResizeState|LiveStateEqualsReplay|Snapshot|WAL|Torn' ./internal/dist/ ./internal/durable/
}

case "${1:-tier1}" in
tier1) tier1 ;;
race) tier15 ;;
obs) obs ;;
chaos) chaos ;;
recover) recover ;;
full)
	tier1
	tier15
	chaos
	;;
*)
	echo "usage: $0 [tier1|race|obs|chaos|recover|full]" >&2
	exit 2
	;;
esac
echo OK
