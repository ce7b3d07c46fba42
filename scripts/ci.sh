#!/usr/bin/env bash
# ci.sh — the repo's one-command gate. Each property is gated once, in order:
#
#   1. gofmt       — no unformatted files (testdata exempt: the loader's test
#                    module keeps a legacy // +build line, which gofmt
#                    rewrites)
#   2. go vet      — default pass plus every registered vet analyzer. Its
#                    copylocks check is the repo's lock-copy guard: a
#                    by-value copy of anything holding a sync type or a typed
#                    atomic, in every shape (assignment, parameter, receiver,
#                    call argument, range value, return)
#   3. govulncheck — known-vuln scan, soft-skipped offline
#   4. build
#   5. go test -race ./... — the full suite under the race detector: every
#                    differential, chaos, drain/restart, overload-pressure and
#                    served-gate test; go test names whichever fails. Then the
#                    sharded runtime and the daemon again at -cpu 1,4: at one
#                    P the dispatching goroutine steps every shard itself, at
#                    four it shares them with helper goroutines, and both
#                    paths run under the race detector
#   6. mutants     — scripts/mutants.sh: each of the 47 scripts/mutants/*.patch
#                    breaks one contract of the real tree, and the checks its
#                    header names (a test, go vet or the build) must each
#                    kill it. The contract is one whose analyzer was deleted
#                    in favour of a test, vet or the build (the ckpt-*
#                    patches drop checkpointed state, which the replay tests
#                    catch), or a fixed bug. The phase prints the kill matrix
#                    (docs/static-analysis.md, "Kill matrix", which also
#                    lists the patches retired as behaviour-equivalent)
#   7. figures     — figures 8–12 and 19 regenerated at paper scale and
#                    compared with experiments_run.txt section by section,
#                    and ablation a1 with ablation_run.txt, by cmd/repro's
#                    TestFiguresMatchRecordedRun under its -slow-figures flag;
#                    phase 5 already compared 6, 7, 13–18 and ablation a2.
#                    Figures 9–11 take about 10 s each, 8, 19 and a1 about
#                    30 s each, and 12 (WALK with OPT-offline at every cache
#                    size) about 3 min
#   8. chaos x200  — the concurrent network-fault campaign, whose failure
#                    mode is a rare interleaving one run cannot show
#                    (docs/service.md, "Sessions"), and the drain-restart
#                    differential at -cpu 1,2,4, which lands its drain at
#                    a fixed batch and must never depend on scheduling
#   9. fuzz smoke  — 10s each of FuzzStepEquivalence, FuzzKeyIndex (the
#                    equi index's table against a map model: backward-shift
#                    deletion), FuzzRestore (the engine's Restore on hostile
#                    bytes, as sent and with the checksum recomputed: an
#                    error with the operator untouched, or a state that
#                    passes CheckInvariants, never a panic; and a fresh and
#                    a stepped operator of one configuration either both
#                    refuse it or write byte-identical next checkpoints;
#                    each input is restored into sixteen operators, so
#                    minimizing a new input is bounded to one run, or it
#                    takes the 10s), FuzzManifestRestore (the sharded
#                    runtime's Restore on hostile manifests, as sent and
#                    with the checksum recomputed: never a panic, and a
#                    manifest that restores passes CheckInvariants and
#                    round-trips checkpoint to restore byte for byte;
#                    minimizing bounded the same way) and
#                    the three wire fuzzers over their committed corpora.
#                    The two decoders a peer's bytes reach every batch read
#                    a record in one pass at an offset into the frame, one
#                    length check per fixed part:
#                    FuzzDecodeResults (an accepted frame decodes to pairs P
#                    with decode(encode(P)) = P and encode(P) a fixed point —
#                    a tuple inline twice decodes but re-encodes as a
#                    reference), FuzzNumberedResults (the encoding of a
#                    listing whose tuples carry numbers, as the daemon's
#                    replies do, is EncodeResults of the same pairs, at any
#                    chunk cut) and FuzzDecodeIngest (re-encodes byte for
#                    byte); then the frame parser's FuzzFrameReader, and
#                    FuzzTableSample (dist.Table.Sample's guide-table search
#                    against the binary search it replaced, at the fuzzed
#                    draw and at every running sum and bucket edge)
#  10. bench smoke — a build that breaks a benchmark cannot land: every
#                    go-test benchmark in the tree once (-benchmem, so
#                    allocs/op land in the log; `./...` picks up
#                    BenchmarkHEEBDecision/{trend64,walk8,band256} in
#                    internal/policy, whose 0 allocs/op phase 5 pins as
#                    TestHEEBDecisionAllocs,
#                    BenchmarkDispatchMerge/{fresh,lagged} in
#                    internal/shardrt, the shard-output ordering and merge
#                    before and after the lanes have drifted, and
#                    BenchmarkStepRAND/{cache=256,cache=1024,cache=4096,
#                    window,hot,band} in internal/engine, the slot table's
#                    replacement, expiry, long-chain and band-probe steps
#                    (a band join looks its band's keys up in the key
#                    table), and BenchmarkServedBatch/uptime in
#                    internal/streamd — the micro-benchmarks of the equi
#                    index's key table and chains — and
#                    BenchmarkServedBatch/fanout, the micro-benchmark of the
#                    Results layout's tuple references, and
#                    BenchmarkTableSample/{r,s} in internal/dist and
#                    BenchmarkGenerate/{trend,walk} in internal/process, a
#                    draw from the trend ledger's two noise tables and the
#                    ledger's trend and walk inputs), then the ledger
#                    (go run ./bench at its tiny scale: every phase and the
#                    output oracle). Perf itself is judged on the ledger's
#                    end-to-end metrics against BENCHMARK.json's bounds
#                    (docs/performance.md, "Perf contract"), not here
#
# Run from the repo root:
#
#   ./scripts/ci.sh
#
# Extra go-test flags pass through to the test phase, e.g.
# ./scripts/ci.sh -run Telemetry -v.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> gofmt"
# Files under testdata may be deliberately unformatted; everything else must
# be gofmt-clean.
unformatted=$(gofmt -l . | grep -v '/testdata/' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt: unformatted files:"
    echo "$unformatted"
    exit 1
fi

echo "==> go vet (default, then all registered analyzers)"
go vet ./...
# Enumerate the toolchain's full analyzer set dynamically so new checks are
# picked up on toolchain upgrades; fall back to the default pass (already
# run) if enumeration yields nothing.
vet_flags=$(go tool vet help 2>&1 | awk '/^\t[a-z]/ || /^    [a-z]/ {printf "-%s=true ", $1}')
if [ -n "$vet_flags" ]; then
    # shellcheck disable=SC2086
    go vet $vet_flags ./...
else
    echo "vet analyzer enumeration failed; default pass only"
fi

echo "==> govulncheck (soft-skip when offline or GOPROXY=off)"
GOVULNCHECK=golang.org/x/vuln/cmd/govulncheck@v1.1.4
if vuln_out=$(go run "$GOVULNCHECK" ./... 2>&1); then
    echo "$vuln_out"
elif grep -qiE 'GOPROXY=off|no such host|dial tcp|connection refused|i/o timeout|proxy\.golang\.org|TLS handshake|temporary failure|network is unreachable' <<<"$vuln_out"; then
    echo "govulncheck skipped: module proxy unreachable in this environment"
else
    echo "$vuln_out"
    exit 1
fi

echo "==> build"
go build ./...

echo "==> test (-race)"
go test -race "$@" ./...
go test -race -cpu 1,4 "$@" ./internal/shardrt ./internal/streamd

echo "==> mutants (kill matrix)"
./scripts/mutants.sh

echo "==> figures 8–12 and 19 against experiments_run.txt, ablation a1 against ablation_run.txt"
go test -run '^TestFiguresMatchRecordedRun$' -count=1 ./cmd/repro -args -slow-figures

echo "==> chaos x200 (concurrent network faults), drain-restart x200"
go test -run '^TestNetworkChaosConcurrent$' -count=200 ./internal/faultinject
go test -run '^TestDrainRestartByteIdentical$' -count=200 -cpu 1,2,4 ./internal/streamd

echo "==> fuzz smoke (committed corpus + 10s)"
go test -run '^$' -fuzz '^FuzzStepEquivalence$' -fuzztime 10s ./internal/engine
go test -run '^$' -fuzz '^FuzzKeyIndex$' -fuzztime 10s ./internal/engine
go test -run '^$' -fuzz '^FuzzRestore$' -fuzztime 10s -fuzzminimizetime 1x ./internal/engine
go test -run '^$' -fuzz '^FuzzManifestRestore$' -fuzztime 10s -fuzzminimizetime 1x ./internal/shardrt
go test -run '^$' -fuzz '^FuzzDecodeResults$' -fuzztime 10s ./internal/streamd/wire
go test -run '^$' -fuzz '^FuzzNumberedResults$' -fuzztime 10s ./internal/streamd/wire
go test -run '^$' -fuzz '^FuzzDecodeIngest$' -fuzztime 10s ./internal/streamd/wire
go test -run '^$' -fuzz '^FuzzFrameReader$' -fuzztime 10s ./internal/streamd/wire
go test -run '^$' -fuzz '^FuzzTableSample$' -fuzztime 10s ./internal/dist

echo "==> bench smoke"
go test -run '^$' -bench . -benchtime 1x -benchmem ./...
go run ./bench -scale tiny -seconds 0.2

echo "ci: all gates passed"
