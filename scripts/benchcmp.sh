#!/usr/bin/env bash
# benchcmp.sh — guard the repo's recorded performance baselines:
#
#   1. hot path: runs the BenchmarkStepHot* suite fresh and fails
#      if any benchmark's fresh median ns/op regresses more than
#      BENCH_hotpath.json's regression_gate_percent (25%) past the recorded
#      'after' median;
#   2. flight recorder: runs BenchmarkStepBare vs BenchmarkStepFlightRec and
#      fails if the fresh-median overhead of the instrumented run exceeds
#      BENCH_flightrec.json's overhead_budget_percent (100% of a ~2 us step);
#   3. batched ingress: runs BenchmarkStepLoop256 vs BenchmarkStepBatch256
#      and fails if StepBatch's fresh-median overhead over the looped Step
#      exceeds BENCH_shard.json's overhead_budget_percent (10%);
#   4. sharded runtime: runs BenchmarkShardedBaseline vs BenchmarkShardedStep8
#      and fails if the fresh-median speedup falls below BENCH_shard.json's
#      min_speedup_x (1.5x);
#   5. network daemon: runs BenchmarkStreamdDirect vs BenchmarkStreamdDaemon
#      and fails if the daemon's fresh-median per-batch overhead over the
#      direct shardrt.IngestBatch call exceeds BENCH_streamd.json's
#      overhead_budget_percent (75% of a ~0.2 ms batch).
#
# The overhead budgets are ratios over a step that the forecast-window kernel
# made ~50x cheaper; each BENCH file records the absolute added ns beside its
# ratio, and that is the number to read when a ratio moves.
#
#   ./scripts/benchcmp.sh            # full gate (per-gate iteration counts below)
#   ./scripts/benchcmp.sh -benchtime 20x -count 1   # quicker, noisier
#
# Lint budget: stochlint's wall time is tracked separately in
# BENCH_stochlint.json (load vs analysis phase, serial vs -parallel). It is
# not gated here — the analyzers run on every ci.sh invocation, so the
# budget contract is simply that a full stochlint run stays an order of
# magnitude under the test suite's wall time (budget_gate_ms in that file).
# Regenerate its numbers with: go run ./cmd/stochlint -timing ./...
# Note the per-analyzer aggregates in the -timing output sum each worker's
# wall time: with -parallel > 1 concurrent workers overlap, so the analyzer
# column can add up to more than analyze_ms — compare budgets against the
# analyze_ms wall time, not the per-analyzer sum.
set -euo pipefail
cd "$(dirname "$0")/.."

# Iteration counts per gate, so that one run lasts tens of milliseconds at
# least: a hot-path or shard step costs microseconds, a flight-recorder op is
# a whole 2000-step run, a daemon op is one 64-step batch. Explicit arguments
# override all of them.
HOT_ARGS=(-benchtime 5000x -count 3)
ARGS=(-benchtime 50x -count 3)
SHARD_ARGS=(-benchtime 5000x -count 5)
DAEMON_ARGS=(-benchtime 500x -count 3)
if [ "$#" -gt 0 ]; then
    HOT_ARGS=("$@")
    ARGS=("$@")
    SHARD_ARGS=("$@")
    DAEMON_ARGS=("$@")
fi

go test -run '^$' -bench BenchmarkStepHot "${HOT_ARGS[@]}" . |
    tee /dev/stderr |
    go run ./scripts/benchcmp BENCH_hotpath.json

go test -run '^$' -bench 'BenchmarkStep(Bare|FlightRec)$' "${ARGS[@]}" . |
    tee /dev/stderr |
    go run ./scripts/benchcmp -overhead BenchmarkStepBare BenchmarkStepFlightRec BENCH_flightrec.json

go test -run '^$' -bench 'BenchmarkStep(Loop|Batch)256$' "${SHARD_ARGS[@]}" . |
    tee /dev/stderr |
    go run ./scripts/benchcmp -overhead BenchmarkStepLoop256 BenchmarkStepBatch256 BENCH_shard.json

go test -run '^$' -bench 'BenchmarkSharded(Baseline|Step8)$' "${SHARD_ARGS[@]}" . |
    tee /dev/stderr |
    go run ./scripts/benchcmp -scale BenchmarkShardedBaseline BenchmarkShardedStep8 BENCH_shard.json

go test -run '^$' -bench 'BenchmarkStreamd(Direct|Daemon)$' "${DAEMON_ARGS[@]}" . |
    tee /dev/stderr |
    go run ./scripts/benchcmp -overhead BenchmarkStreamdDirect BenchmarkStreamdDaemon BENCH_streamd.json
