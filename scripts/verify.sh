#!/usr/bin/env sh
# Repo verification: tier-1 suite, then CLI smokes and schema gates.
#
# Every stage runs under a hard coreutils timeout(1) so a wedged run (a
# hung worker, a deadlocked pool) fails loudly instead of hanging CI.
# Exit code is non-zero if any stage fails or times out.  The tier-1 stage
# runs all of tests/, so no stage re-runs a marker subset of it (the
# Makefile's faults/tune/zoo/serve/scale targets select those).
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH="${PYTHONPATH:-src}"

TIER1_TIMEOUT="${TIER1_TIMEOUT:-1200}"
PROFILE_TIMEOUT="${PROFILE_TIMEOUT:-120}"
SERVE_TIMEOUT="${SERVE_TIMEOUT:-180}"
FLEET_TIMEOUT="${FLEET_TIMEOUT:-180}"
CHAOS_TIMEOUT="${CHAOS_TIMEOUT:-180}"
SCALE_TIMEOUT="${SCALE_TIMEOUT:-180}"
METRICS_TIMEOUT="${METRICS_TIMEOUT:-180}"
REGRESS_TIMEOUT="${REGRESS_TIMEOUT:-60}"
BENCH_SMOKE_TIMEOUT="${BENCH_SMOKE_TIMEOUT:-300}"

echo "== tier-1 suite (timeout ${TIER1_TIMEOUT}s) =="
timeout "${TIER1_TIMEOUT}" python -m pytest -x -q

echo "== telemetry profile smoke test (timeout ${PROFILE_TIMEOUT}s) =="
PROFILE_TRACE="$(mktemp /tmp/repro-profile-XXXXXX.json)"
CHAOS_REPORT=""
SCALE_REPORT=""
trap 'rm -f "${PROFILE_TRACE}" ${CHAOS_REPORT:+"${CHAOS_REPORT}"} ${SCALE_REPORT:+"${SCALE_REPORT}"}' EXIT
timeout "${PROFILE_TIMEOUT}" python -m repro profile \
    --ni 32 --no 32 --out 16 --batch 16 --tiles 8 --guarded \
    --trace-out "${PROFILE_TRACE}"
timeout "${PROFILE_TIMEOUT}" python -m repro.telemetry.validate "${PROFILE_TRACE}"

echo "== serve smoke (timeout ${SERVE_TIMEOUT}s) =="
timeout "${SERVE_TIMEOUT}" python -m repro serve --smoke

echo "== multi-chip fleet smoke + schema gate (timeout ${FLEET_TIMEOUT}s) =="
# The fleet smoke routes a skewed multi-shape trace across 4 simulated
# chips and asserts balanced per-chip counters and a zero-wrong-answer
# parity audit; the chaos variant kills a home chip mid-run and asserts
# route-around.  The validator then gates the committed benchmark record
# (scaling at matched p99, affinity hit rate, bit-identity).
timeout "${FLEET_TIMEOUT}" python -m repro serve --chips 4 --smoke
timeout "${FLEET_TIMEOUT}" python -m repro serve --chips 3 --chaos \
    --requests 48 --smoke
if [ -f benchmarks/BENCH_fleet.json ]; then
    timeout "${FLEET_TIMEOUT}" python -m repro.serve.validate \
        benchmarks/BENCH_fleet.json
fi

echo "== chaos-serve smoke + schema gate (timeout ${CHAOS_TIMEOUT}s) =="
# The smoke asserts availability under seeded dma+cpe faults and the
# zero-wrong-answer parity audit; the validator then checks the emitted
# report and the committed benchmark record against the same schema.
CHAOS_REPORT="$(mktemp /tmp/repro-chaos-XXXXXX.json)"
timeout "${CHAOS_TIMEOUT}" python -m repro serve --chaos --smoke \
    --json-out "${CHAOS_REPORT}"
timeout "${CHAOS_TIMEOUT}" python -m repro.faults.validate "${CHAOS_REPORT}"
if [ -f benchmarks/BENCH_chaos_serve.json ]; then
    timeout "${CHAOS_TIMEOUT}" python -m repro.faults.validate \
        benchmarks/BENCH_chaos_serve.json
fi

echo "== data-parallel scale smoke + schema gate (timeout ${SCALE_TIMEOUT}s) =="
# The smoke trains the same global batches on 1/2/4 executed nodes and
# asserts bitwise-identical weights; the validator then checks the
# emitted report and the committed benchmark record against the same
# schema (parity proof, sorted scaling curves, >=1.2x overlap at scale).
SCALE_REPORT="$(mktemp /tmp/repro-scale-XXXXXX.json)"
timeout "${SCALE_TIMEOUT}" python -m repro train --nodes 3 --smoke \
    --json-out "${SCALE_REPORT}"
timeout "${SCALE_TIMEOUT}" python -m repro.scale.validate "${SCALE_REPORT}"
if [ -f benchmarks/BENCH_dataparallel.json ]; then
    timeout "${SCALE_TIMEOUT}" python -m repro.scale.validate \
        benchmarks/BENCH_dataparallel.json
fi

echo "== metrics smoke: dashboard + exposition round-trip (timeout ${METRICS_TIMEOUT}s) =="
# A seeded serve run with the metrics registry enabled: the smoke asserts
# non-trivial latency histograms, a queue-depth time series, and that the
# OpenMetrics exposition parses and agrees with the JSON snapshot.
timeout "${METRICS_TIMEOUT}" python -m repro metrics --smoke \
    --requests 48 > /dev/null

echo "== bench regression gate (timeout ${REGRESS_TIMEOUT}s) =="
# Re-derives every headline scalar from the committed BENCH_*.json ledger
# and fails with a delta table on any per-metric tolerance violation
# (self-comparison here: the extractors and invariant metrics must hold).
timeout "${REGRESS_TIMEOUT}" python -m repro.telemetry.regress benchmarks

echo "== benchmark harness smoke (timeout ${BENCH_SMOKE_TIMEOUT}s) =="
# Runs every swbench workload on tiny inputs through its real command
# line, so a src/ change that breaks an entry point the harness patches
# (swbench/tracing.py) fails here rather than in the benchmark run.
timeout "${BENCH_SMOKE_TIMEOUT}" python3 -m pytest swbench/tests -q

echo "verify: OK"
