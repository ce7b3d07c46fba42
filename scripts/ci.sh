#!/usr/bin/env bash
# ci.sh — the repo's one-command gate. Each property is gated once, in order:
#
#   1. gofmt       — no unformatted files (testdata corpora exempt: some are
#                    deliberately unidiomatic)
#   2. go vet      — default pass plus every registered vet analyzer, run
#                    before stochlint so toolchain-level breakage is named
#                    before custom-analyzer findings. Its copylocks check is
#                    the repo's lock-copy guard: a by-value copy of anything
#                    holding a sync type or a typed atomic, in every shape
#                    (assignment, parameter, receiver, call argument, range
#                    value, return)
#   3. stochlint   — the custom determinism/correctness analyzer suite over
#                    the tree, 0 findings (internal/lintrules,
#                    docs/static-analysis.md). That the suite still fires —
#                    exit 1 and byte-exact findings on the seeded corpus, the
#                    clean statecheck corpus, the two mutation self-tests — is
#                    cmd/stochlint's own Go tests, which phase 6 runs
#   4. govulncheck — known-vuln scan, soft-skipped offline
#   5. build
#   6. go test -race ./... — the full suite under the race detector: every
#                    differential, chaos, drain/restart, overload-pressure and
#                    lint self-test; go test names whichever fails. Then the
#                    sharded runtime and the daemon again at -cpu 1,4: at one
#                    P the dispatching goroutine steps every shard itself, at
#                    four it shares them with helper goroutines, and both
#                    paths run under the race detector
#   7. mutants     — scripts/mutants.sh: each scripts/mutants/*.patch breaks
#                    one contract of the real tree (a historical analyzer
#                    catch, a contract whose analyzer was deleted in favour of
#                    a test, vet or the build, a fixed bug), and the checks
#                    its header names must each kill it; prints the kill
#                    matrix (docs/static-analysis.md, "Kill matrix")
#   8. figures     — figures 8 and 19 regenerated at paper scale (about 30 s
#                    each) and compared with experiments_run.txt section by
#                    section, and ablation a1 (about 75 s) with
#                    ablation_run.txt, by cmd/repro's
#                    TestFiguresMatchRecordedRun under its -slow-figures flag;
#                    phase 6 already compared 6, 7, 13–18 and ablation a2.
#                    Figures 9–11 (~20 s each) and 12 (~7 min) are left out:
#                    their recorded sections are checked by hand
#   9. chaos x200  — the concurrent network-fault campaign, whose failure
#                    mode is a rare interleaving one run cannot show
#                    (docs/service.md, "Sessions")
#  10. fuzz smoke  — 10s each of FuzzStepEquivalence, FuzzKeyIndex (the
#                    equi index's table against a map model: backward-shift
#                    deletion) and the three wire fuzzers over their
#                    committed corpora. The two decoders a peer's bytes reach
#                    every batch read a record in one pass at an offset into
#                    the frame, one length check per fixed part:
#                    FuzzDecodeResults (an accepted frame decodes to pairs P
#                    with decode(encode(P)) = P and encode(P) a fixed point —
#                    a tuple inline twice decodes but re-encodes as a
#                    reference), FuzzNumberedResults (the encoding of a
#                    listing whose tuples carry numbers, as the daemon's
#                    replies do, is EncodeResults of the same pairs, at any
#                    chunk cut) and FuzzDecodeIngest (re-encodes byte for
#                    byte); then the frame parser's FuzzFrameReader
#  11. bench smoke — a build that breaks a benchmark cannot land: every
#                    go-test benchmark in the tree once (-benchmem, so
#                    allocs/op land in the log; `./...` picks up
#                    BenchmarkHEEBDecision/{trend64,walk8,band256} in
#                    internal/policy, whose 0 allocs/op phase 6 pins as
#                    TestHEEBDecisionAllocs,
#                    BenchmarkDispatchMerge/{fresh,lagged} in
#                    internal/shardrt, the shard-output ordering and merge
#                    before and after the lanes have drifted, and
#                    BenchmarkStepRAND/{cache=256,cache=1024,cache=4096,
#                    window,hot,band} in internal/engine, the slot table's
#                    replacement, expiry, long-chain and ordered-index
#                    steps, and BenchmarkServedBatch/uptime in
#                    internal/streamd — the micro-benchmarks of the equi
#                    index's key table and chains — and
#                    BenchmarkServedBatch/fanout, the micro-benchmark of the
#                    Results layout's tuple references), then the ledger
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
# Corpus files under testdata seed deliberate violations (including layout);
# everything else must be gofmt-clean.
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

echo "==> stochlint"
go run ./cmd/stochlint ./...

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

echo "==> figures 8 and 19 against experiments_run.txt, ablation a1 against ablation_run.txt"
go test -run '^TestFiguresMatchRecordedRun$' -count=1 ./cmd/repro -args -slow-figures

echo "==> chaos x200 (concurrent network faults)"
go test -run '^TestNetworkChaosConcurrent$' -count=200 ./internal/faultinject

echo "==> fuzz smoke (committed corpus + 10s)"
go test -run '^$' -fuzz '^FuzzStepEquivalence$' -fuzztime 10s ./internal/engine
go test -run '^$' -fuzz '^FuzzKeyIndex$' -fuzztime 10s ./internal/engine
go test -run '^$' -fuzz '^FuzzDecodeResults$' -fuzztime 10s ./internal/streamd/wire
go test -run '^$' -fuzz '^FuzzNumberedResults$' -fuzztime 10s ./internal/streamd/wire
go test -run '^$' -fuzz '^FuzzDecodeIngest$' -fuzztime 10s ./internal/streamd/wire
go test -run '^$' -fuzz '^FuzzFrameReader$' -fuzztime 10s ./internal/streamd/wire

echo "==> bench smoke"
go test -run '^$' -bench . -benchtime 1x -benchmem ./...
go run ./bench -scale tiny -seconds 0.2

echo "ci: all gates passed"
