#!/usr/bin/env bash
# ci.sh — the repo's one-command gate, in order:
#
#   1. gofmt            — no unformatted files (testdata corpora exempt:
#                         some are deliberately unidiomatic)
#   2. go vet           — default pass plus every registered vet analyzer,
#                         run before stochlint so toolchain-level breakage
#                         is named before custom-analyzer findings
#   3. stochlint        — the custom determinism/correctness analyzer suite
#                         (internal/lintrules, docs/static-analysis.md)
#   4. stochlint self-test — the driver must exit 1 on the seeded corpus;
#                         a silently broken analyzer suite cannot pass CI
#   5. concurrency lint — the goleak/chandiscipline/atomicfield/mergedet
#                         corpora plus locksafe, the golden-JSON sync check
#                         (scripts/regen-golden.sh --check), and an exit-1
#                         self-test proving all four concurrency analyzers
#                         still fire on the seeded shardrt corpus
#   6. state contracts  — the snapcomplete/fingerprintcover/wirexhaustive
#                         corpora, the clean statecheck corpus, a mutation
#                         self-test (deleting a marked snapshot field-capture,
#                         and separately a marked wire frame case, must make
#                         stochlint exit 1 naming the field/constant), and an
#                         exit-1 check that all three fire on the seeded mod
#                         corpus (docs/static-analysis.md, "State contracts")
#   7. govulncheck      — known-vuln scan, soft-skipped offline
#   8. build
#   9. go test -race    — the full suite under the race detector
#  10. chaos smoke      — seeded fault-injection campaign against the full
#                         degradation ladder (docs/fault-tolerance.md)
#  11. flight recorder  — race-detected flightrec suite plus the seeded
#                         bundle-on-fault chaos run as a named, grep-able gate
#                         (docs/observability.md)
#  12. shard runtime    — race-detected shardrt suite plus the recorded
#                         sharded-speedup gate (BENCH_shard.json, ≥1.5x at 8
#                         shards; docs/performance.md)
#  13. streamd service  — race-detected daemon/wire/client suites, the seeded
#                         network-chaos campaign as a named gate, and the
#                         race-enabled stress smoke (scripts/stress.sh --smoke:
#                         concurrent sessions through a live daemon with
#                         conservation, heap and p99 bounds; docs/service.md)
#  14. fuzz smoke       — 10s of FuzzStepEquivalence over the committed corpus
#  15. gate self-test   — scripts/benchcmp_test.sh proves the perf gate fails
#  16. bench smoke      — a build that breaks the benchmarks cannot land,
#                         go-test ones (the root package's BenchmarkStep*, the
#                         engine's BenchmarkStepRAND across cache sizes, the
#                         shard merge) or the ledger (go run ./bench at its
#                         tiny scale: every phase and the output oracle)
#
# Run from the repo root:
#
#   ./scripts/ci.sh
#
# Extra go-test flags pass through to the test phase, e.g.
# ./scripts/ci.sh -run Telemetry -v. For the before/after perf regression
# gate, run ./scripts/benchcmp.sh.
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

echo "==> go vet (default)"
go vet ./...

echo "==> go vet (all registered analyzers)"
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

echo "==> stochlint self-test (seeded corpus must fail)"
# The golden corpus under cmd/stochlint/testdata/mod seeds one finding of
# every interesting shape; the driver exiting 0 there means the analyzer
# suite has gone silently blind.
rc=0
go run ./cmd/stochlint -C cmd/stochlint/testdata/mod ./... >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "stochlint self-test failed: expected exit 1 on the seeded corpus, got $rc"
    exit 1
fi

echo "==> concurrency lint suite (corpora + golden sync + exit-1 self-test)"
# The four concurrency analyzers' corpora (each with an interprocedural-only
# case) and the locksafe copies, as a named gate.
go test -run 'TestGoleak|TestChandiscipline|TestAtomicfield|TestMergedet|TestLocksafe' -count=1 ./internal/lintrules
# The committed golden must match a fresh run of the suite.
./scripts/regen-golden.sh --check
# Exit-1 self-test scoped to the concurrency seeds: the seeded shardrt
# corpus must fail the driver AND trip every analyzer of the concurrency
# suite — one of them going silently blind is exactly what this catches.
rc=0
conc_json=$(go run ./cmd/stochlint -C cmd/stochlint/testdata/mod -json ./internal/shardrt/... 2>/dev/null) || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "concurrency self-test: expected exit 1 on the seeded shardrt corpus, got $rc"
    exit 1
fi
for a in goleak chandiscipline atomicfield mergedet; do
    if ! grep -q "\"analyzer\": \"$a\"" <<<"$conc_json"; then
        echo "concurrency self-test: no $a finding in the seeded shardrt corpus"
        exit 1
    fi
done

echo "==> state contracts (corpora + clean corpus + mutation self-test)"
# The three state-integrity analyzers' corpora (each with an
# interprocedural-only case) plus the suite-shape pin.
go test -run 'TestSnapcomplete|TestFingerprintcover|TestWirexhaustive|TestScoping' -count=1 ./internal/lintrules
# The statecheck mutation corpus is clean as committed: the full suite must
# pass it, or the mutation self-test below would be meaningless.
go run ./cmd/stochlint -C cmd/stochlint/testdata/statecheck ./...
# Mutation self-test: drop the marked snapshot field-capture and the marked
# wire frame case in throwaway copies; each mutant must fail the driver with
# a finding that names exactly what was dropped. An analyzer that stays
# silent here has gone blind to the one regression it exists to catch.
statecheck_tmp=$(mktemp -d)
trap 'rm -rf "$statecheck_tmp"' EXIT
cp -r cmd/stochlint/testdata/statecheck "$statecheck_tmp/snap"
sed -i '/ci:mutate-snapshot/d' "$statecheck_tmp/snap/internal/engine/engine.go"
rc=0
snap_out=$(go run ./cmd/stochlint -C "$statecheck_tmp/snap" -rules snapcomplete ./... 2>/dev/null) || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "statecheck self-test: expected exit 1 on the snapshot mutant, got $rc"
    exit 1
fi
if ! grep -q 'persistent field Total' <<<"$snap_out"; then
    echo "statecheck self-test: snapshot mutant finding does not name the dropped field Total:"
    echo "$snap_out"
    exit 1
fi
cp -r cmd/stochlint/testdata/statecheck "$statecheck_tmp/wire"
sed -i '/ci:mutate-wire/d' "$statecheck_tmp/wire/internal/streamd/streamd.go"
rc=0
wire_out=$(go run ./cmd/stochlint -C "$statecheck_tmp/wire" -rules wirexhaustive ./... 2>/dev/null) || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "statecheck self-test: expected exit 1 on the wire mutant, got $rc"
    exit 1
fi
if ! grep -q 'TypeData' <<<"$wire_out"; then
    echo "statecheck self-test: wire mutant finding does not name the dropped constant TypeData:"
    echo "$wire_out"
    exit 1
fi
rm -rf "$statecheck_tmp"
trap - EXIT
# Exit-1 check on the seeded mod corpus: all three state analyzers must fire
# there (the golden pins the exact findings; this names a blind analyzer).
rc=0
state_json=$(go run ./cmd/stochlint -C cmd/stochlint/testdata/mod -json -rules snapcomplete,fingerprintcover,wirexhaustive ./... 2>/dev/null) || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "statecheck self-test: expected exit 1 on the seeded mod corpus, got $rc"
    exit 1
fi
for a in snapcomplete fingerprintcover wirexhaustive; do
    if ! grep -q "\"analyzer\": \"$a\"" <<<"$state_json"; then
        echo "statecheck self-test: no $a finding in the seeded mod corpus"
        exit 1
    fi
done

echo "==> govulncheck (soft-skip when offline)"
GOVULNCHECK=golang.org/x/vuln/cmd/govulncheck@v1.1.4
if vuln_out=$(go run "$GOVULNCHECK" ./... 2>&1); then
    echo "$vuln_out"
elif grep -qiE 'no such host|dial tcp|connection refused|i/o timeout|proxy\.golang\.org|TLS handshake|temporary failure|network is unreachable' <<<"$vuln_out"; then
    echo "govulncheck skipped: module proxy unreachable in this environment"
else
    echo "$vuln_out"
    exit 1
fi

echo "==> build"
go build ./...

echo "==> test (-race)"
go test -race "$@" ./...

echo "==> chaos smoke (seeded fault injection)"
# The -race phase above already ran these once; this re-runs them undetected
# at full speed as a freestanding, grep-able gate so a chaos regression is
# named in CI output rather than buried in the package list.
go test -run '^TestChaos' -count=1 -v ./internal/faultinject | grep -E '^(=== RUN|--- (PASS|FAIL)|PASS|FAIL|ok)'

echo "==> flight recorder (spans, lifecycle, bundles)"
# Freestanding, grep-able reruns of the observability contract: the recorder
# suite under the race detector, then the seeded chaos campaign that must
# produce a loadable diagnostics bundle for every ladder downgrade. The
# overhead budget itself (BENCH_flightrec.json) is gated by
# scripts/benchcmp.sh, not here.
go test -race -count=1 ./internal/flightrec
go test -run '^TestChaosBundlePerFault$' -count=1 -v ./internal/faultinject | grep -E '^(=== RUN|--- (PASS|FAIL)|PASS|FAIL|ok)'

echo "==> shard runtime (race suite + sharded-speedup gate)"
# Freestanding rerun of the sharded-runtime contract under the race detector
# (merge determinism, differential vs per-shard references, rebalancing,
# sharded checkpoints), then the recorded speedup floor: 8 shards must stay
# ≥ BENCH_shard.json's min_speedup_x over the single-engine baseline. The
# StepBatch overhead budget in the same file is gated by scripts/benchcmp.sh.
go test -race -count=1 ./internal/shardrt
go test -run '^$' -bench 'BenchmarkSharded(Baseline|Step8)$' -benchtime 5000x -count 3 . |
    go run ./scripts/benchcmp -scale BenchmarkShardedBaseline BenchmarkShardedStep8 BENCH_shard.json

echo "==> streamd service (race suites + network chaos + stress smoke)"
# Freestanding rerun of the network front-end contract under the race
# detector: protocol edges, overload shedding, drain/restart byte-identity,
# the wire format and the resuming client — including
# TestHTTPAndWireIngestConcurrent, which is a test only under the detector
# (nothing runtime-owned may cross from the engine loop to an HTTP handler
# goroutine). Then the seeded network-fault
# campaign as a named, grep-able gate, and the race-enabled stress smoke —
# concurrent sessions against a live daemon with exact tuple conservation,
# bounded heap and bounded p99 (docs/service.md). The daemon-overhead budget
# itself (BENCH_streamd.json) is gated by scripts/benchcmp.sh, not here.
go test -race -count=1 ./internal/streamd/... ./cmd/stochstreamd
go test -run '^TestNetworkChaos' -count=1 -v ./internal/faultinject | grep -E '^(=== RUN|--- (PASS|FAIL)|PASS|FAIL|ok)'
./scripts/stress.sh --smoke

echo "==> fuzz smoke (committed corpus + 10s)"
go test -run '^$' -fuzz '^FuzzStepEquivalence$' -fuzztime 10s ./internal/engine

echo "==> perf gate self-test"
./scripts/benchcmp_test.sh

echo "==> bench smoke"
go test -run '^$' -bench BenchmarkStep -benchtime 100x .
go test -run '^$' -bench BenchmarkStepRAND -benchtime 100x ./internal/engine
go test -run '^$' -bench BenchmarkDispatchMerge -benchtime 100x ./internal/shardrt
go run ./bench -scale tiny -seconds 0.2

echo "ci: all gates passed"
