#!/usr/bin/env sh
# Repo verification: tier-1 suite, then CLI smokes and schema gates.
#
# Every stage runs under a hard coreutils timeout(1) so a wedged run (a
# hung worker, a deadlocked pool) fails loudly instead of hanging CI.
# Exit code is non-zero if any stage fails or times out.  The tier-1 stage
# runs all of tests/, so no stage re-runs a marker subset of it (the
# Makefile's faults/tune/zoo/serve/scale targets select those); it also
# checks every committed benchmarks/BENCH_*.json record against its
# repro.common.schema kind and acceptance bars (tests/cli/test_cli.py).
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
BENCH_SMOKE_TIMEOUT="${BENCH_SMOKE_TIMEOUT:-300}"

echo "== tier-1 suite (timeout ${TIER1_TIMEOUT}s) =="
timeout "${TIER1_TIMEOUT}" python -m pytest -x -q

WORK="$(mktemp -d /tmp/repro-verify-XXXXXX)"
trap 'rm -rf "${WORK}"' EXIT

echo "== telemetry profile smoke + schema gate (timeout ${PROFILE_TIMEOUT}s) =="
# The profile document carries the communication-lower-bound oracle
# report, so this gate covers the oracle tag too.
timeout "${PROFILE_TIMEOUT}" python -m repro profile \
    --ni 32 --no 32 --out 16 --batch 16 --tiles 8 --guarded \
    --trace-out "${WORK}/trace.json" --json-out "${WORK}/profile.json"
timeout "${PROFILE_TIMEOUT}" python -m repro validate \
    "${WORK}/trace.json" "${WORK}/profile.json"

echo "== serve smoke (timeout ${SERVE_TIMEOUT}s) =="
timeout "${SERVE_TIMEOUT}" python -m repro serve --smoke

echo "== multi-chip fleet smoke + schema gate (timeout ${FLEET_TIMEOUT}s) =="
# The fleet smoke routes a skewed multi-shape trace across 4 simulated
# chips and asserts balanced per-chip counters and a zero-wrong-answer
# parity audit; the chaos variant kills a home chip mid-run and asserts
# route-around.  The schema gate then checks the chaos report, its
# flight-recorder ring and the committed benchmark record (scaling at
# matched p99, affinity hit rate, bit-identity).
timeout "${FLEET_TIMEOUT}" python -m repro serve --chips 4 --smoke
timeout "${FLEET_TIMEOUT}" python -m repro serve --chips 3 --chaos \
    --requests 48 --smoke --json-out "${WORK}/chaos_fleet.json" \
    --flight-out "${WORK}/chaos_fleet_flight.json"
timeout "${FLEET_TIMEOUT}" python -m repro validate \
    "${WORK}/chaos_fleet.json" "${WORK}/chaos_fleet_flight.json" \
    benchmarks/BENCH_fleet.json

echo "== chaos-serve smoke + schema gate (timeout ${CHAOS_TIMEOUT}s) =="
# The smoke asserts availability under seeded dma+cpe faults and the
# zero-wrong-answer parity audit; the schema gate then checks the emitted
# report, its flight-recorder ring and the committed benchmark record.
timeout "${CHAOS_TIMEOUT}" python -m repro serve --chaos --smoke \
    --json-out "${WORK}/chaos.json" --flight-out "${WORK}/flight.json"
timeout "${CHAOS_TIMEOUT}" python -m repro validate \
    "${WORK}/chaos.json" "${WORK}/flight.json" \
    benchmarks/BENCH_chaos_serve.json

echo "== data-parallel scale smoke + schema gate (timeout ${SCALE_TIMEOUT}s) =="
# The smoke trains the same global batches on 1/2/4 executed nodes and
# asserts bitwise-identical weights; the schema gate then checks the
# emitted report and the committed benchmark record (parity proof, sorted
# scaling curves, >=1.2x overlap at scale).
timeout "${SCALE_TIMEOUT}" python -m repro train --nodes 3 --smoke \
    --json-out "${WORK}/dataparallel.json"
timeout "${SCALE_TIMEOUT}" python -m repro validate \
    "${WORK}/dataparallel.json" benchmarks/BENCH_dataparallel.json

echo "== metrics smoke + schema gate (timeout ${METRICS_TIMEOUT}s) =="
# A seeded serve run with the metrics registry enabled: the smoke asserts
# non-trivial latency histograms, a queue-depth time series, and that the
# OpenMetrics exposition parses and agrees with the JSON snapshot.
timeout "${METRICS_TIMEOUT}" python -m repro metrics --smoke \
    --requests 48 --json-out "${WORK}/metrics.json" > /dev/null
timeout "${METRICS_TIMEOUT}" python -m repro validate "${WORK}/metrics.json"

echo "== benchmark harness smoke (timeout ${BENCH_SMOKE_TIMEOUT}s) =="
# Runs every swbench workload on tiny inputs through its real command
# line, so a src/ change that breaks an entry point the harness patches
# (swbench/tracing.py) fails here rather than in the benchmark run.
timeout "${BENCH_SMOKE_TIMEOUT}" python3 -m pytest swbench/tests -q

echo "verify: OK"
