"""Telemetry bench: instrumented-vs-disabled overhead + Table III drift.

Records, into ``benchmarks/BENCH_telemetry.json``:

* wall time of a Table III row-1 schedule walk and of a steady-state
  ``mesh-fast`` forward pass, with telemetry disabled (the null-singleton
  default) vs an attached :class:`~repro.telemetry.Telemetry` session,
  plus the relative overhead of each;
* the per-layer model-vs-measured drift report for the four Table III
  configurations (``drift_report(...).as_dict()``).

The acceptance bars asserted here: the *disabled* path must stay within
2% of the instrumented run's floor (i.e. enabling telemetry never makes
the disabled path the slower one by more than noise), and the enabled
session itself must cost < 50% on the schedule walk — it is a profiling
tool, not a production tax, but it must not be pathological either.  The
written record carries the ``repro.telemetry/v1`` tag and passes
``python -m repro validate``.
"""

import json
import os
import time
import tracemalloc

import numpy as np

from repro.common.schema import MAX_WALK_OVERHEAD_PCT, TELEMETRY_SCHEMA, validate
from repro.core.conv import ConvolutionEngine, clear_timing_cache
from repro.core.ldm_blocking import ImageBlocking
from repro.core.params import ConvParams
from repro.core.planner import plan_convolution
from repro.core.plans import ImageSizeAwarePlan
from repro.experiments.table3 import PAPER_ROWS
from repro.telemetry import Telemetry
from repro.telemetry.drift import drift_report

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "BENCH_telemetry.json")

#: Table III row 1 (Ni=128, No=128, 64x64 output, 3x3 filters, B=128).
ROW1 = ConvParams.from_output(ni=128, no=128, ro=64, co=64, kr=3, kc=3, b=128)

#: Small fast-path layer for the functional-run overhead measurement.
FAST_PARAMS = ConvParams.from_output(ni=8, no=8, ro=64, co=64, kr=3, kc=3, b=128)
FAST_BLOCKING = ImageBlocking(b_b=128, b_co=64)

#: Absolute timing slack for the disabled-vs-enabled comparisons: one
#: scheduler quantum of jitter, which a percentage bar cannot absorb when
#: the measured interval is itself only a few milliseconds.
NOISE_FLOOR_SECONDS = 250e-6


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _walk_seconds(telemetry):
    engine = ConvolutionEngine(plan_convolution(ROW1).plan, telemetry=telemetry)

    def walk():
        clear_timing_cache()
        engine.evaluate()

    return _best_of(walk)


def _fast_run_seconds(telemetry):
    engine = ConvolutionEngine(
        ImageSizeAwarePlan(FAST_PARAMS, blocking=FAST_BLOCKING),
        backend="mesh-fast",
        telemetry=telemetry,
    )
    rng = np.random.default_rng(0xFEED)
    x = rng.standard_normal(FAST_PARAMS.input_shape)
    w = rng.standard_normal(FAST_PARAMS.filter_shape)
    engine.run(x, w)  # verification run: certifies the fast path
    return _best_of(lambda: engine.run(x, w), repeats=3)


def test_bench_telemetry(benchmark):
    record = {"schema": TELEMETRY_SCHEMA}

    # -- 1. schedule-walk overhead: disabled vs enabled session ------------
    # The walk takes single-digit milliseconds, so a 2% bar is well below
    # this machine's scheduling noise for any single measurement.  Run the
    # two sides in adjacent pairs (order flipped each round so a monotone
    # drift — frequency ramp, cache warming — cannot systematically favor
    # one side) and hold the *median* per-round ratio to the bar: one
    # noisy round cannot fail the bench, a real regression still does.
    # A real regression moves both the typical (median per-round ratio)
    # and the floor (best-vs-best ratio); noise rarely moves both, so the
    # bar only trips when the two signals agree.
    disabled_walk = enabled_walk = float("inf")
    ratios = []
    for round_index in range(8):
        if round_index % 2 == 0:
            d = _walk_seconds(None)
            e = _walk_seconds(Telemetry())
        else:
            e = _walk_seconds(Telemetry())
            d = _walk_seconds(None)
        disabled_walk = min(disabled_walk, d)
        enabled_walk = min(enabled_walk, e)
        ratios.append(d / e)
    ratios.sort()
    median_ratio = (ratios[3] + ratios[4]) / 2.0
    best_ratio = disabled_walk / enabled_walk
    walk_overhead = enabled_walk / disabled_walk - 1.0
    # 2% relative, plus an absolute scheduler/timer allowance that only
    # matters for millisecond-scale measurements like the walk.
    walk_bar = 1.02 + NOISE_FLOOR_SECONDS / enabled_walk
    assert min(median_ratio, best_ratio) <= walk_bar, (
        f"disabled walk typically {median_ratio:.3f}x the enabled walk "
        f"(best-vs-best {best_ratio:.3f}x, {disabled_walk:.4f}s vs "
        f"{enabled_walk:.4f}s) — beyond the 2% noise bar"
    )
    assert 100.0 * walk_overhead < MAX_WALK_OVERHEAD_PCT, (
        f"enabled telemetry costs {walk_overhead:.1%} on the schedule walk"
    )
    record["schedule_walk"] = {
        "params": str(ROW1),
        "disabled_seconds": round(disabled_walk, 5),
        "enabled_seconds": round(enabled_walk, 5),
        "enabled_overhead_pct": round(100.0 * walk_overhead, 2),
    }

    # -- 2. fast-path forward overhead: disabled vs enabled session --------
    # One discarded warm-up run first: the very first fast-path engine in
    # the process pays one-time costs (plan construction, lazy imports,
    # allocator warm-up) that would otherwise be billed to whichever side
    # happens to run first and swamp the <2% comparison.
    _fast_run_seconds(None)
    d1 = benchmark.pedantic(
        _fast_run_seconds, args=(None,), rounds=1, iterations=1
    )
    # Same paired median-or-best treatment as the schedule walk above.
    e1 = _fast_run_seconds(Telemetry())
    e2 = _fast_run_seconds(Telemetry())
    d2 = _fast_run_seconds(None)
    d3 = _fast_run_seconds(None)
    e3 = _fast_run_seconds(Telemetry())
    run_ratios = sorted([d1 / e1, d2 / e2, d3 / e3])
    disabled_run = min(d1, d2, d3)
    enabled_run = min(e1, e2, e3)
    run_overhead = enabled_run / disabled_run - 1.0
    run_bar = 1.02 + NOISE_FLOOR_SECONDS / enabled_run
    assert min(run_ratios[1], disabled_run / enabled_run) <= run_bar, (
        f"disabled fast path typically {run_ratios[1]:.3f}x the enabled "
        f"run (best {disabled_run:.4f}s vs {enabled_run:.4f}s) — beyond "
        f"the 2% noise bar"
    )
    record["fast_path_forward"] = {
        "params": str(FAST_PARAMS),
        "disabled_seconds": round(disabled_run, 5),
        "enabled_seconds": round(enabled_run, 5),
        "enabled_overhead_pct": round(100.0 * run_overhead, 2),
    }

    # -- 3. metrics/flight sink cost: disabled bytes + enabled ns/op -------
    # The disabled contract is absolute: a hot loop against the null
    # metrics/flight singletons allocates zero bytes inside the telemetry
    # modules.  The enabled sinks are then timed per operation — they are
    # bounded-memory by construction, so per-op cost is the whole story.
    from repro.telemetry import NULL_FLIGHT, NULL_METRICS

    ops = 20000
    NULL_METRICS.observe("serve.latency_ms", 1.0)  # warm interning caches
    NULL_FLIGHT.record("request.submit", request=0)
    telemetry_files = tracemalloc.Filter(True, "*/repro/telemetry/*")
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces([telemetry_files])
        for i in range(ops):
            NULL_METRICS.observe("serve.latency_ms", float(i))
            NULL_METRICS.sample("serve.queue_depth", i * 1e-3, i)
            NULL_FLIGHT.record("request.submit", request=i)
        after = tracemalloc.take_snapshot().filter_traces([telemetry_files])
    finally:
        tracemalloc.stop()
    disabled_bytes = sum(
        stat.size_diff for stat in after.compare_to(before, "filename")
    )
    assert disabled_bytes <= 0, (
        f"disabled metrics/flight allocated {disabled_bytes} bytes"
    )

    session = Telemetry()

    def _ns_per_op(fn):
        start = time.perf_counter()
        for i in range(ops):
            fn(i)
        return (time.perf_counter() - start) / ops * 1e9

    record["metrics_flight"] = {
        "ops": ops,
        "disabled_bytes_allocated": disabled_bytes,
        "observe_ns": round(
            _ns_per_op(lambda i: session.metrics.observe("m.hist", float(i))), 1
        ),
        "sample_ns": round(
            _ns_per_op(lambda i: session.metrics.sample("m.series", i * 1e-3, i)),
            1,
        ),
        "flight_record_ns": round(
            _ns_per_op(lambda i: session.flight.record("request.submit", request=i)),
            1,
        ),
    }

    # -- 4. Table III drift report -----------------------------------------
    configs = [
        ConvParams.from_output(ni=row[3], no=row[4], ro=64, co=64, kr=3, kc=3, b=128)
        for row in PAPER_ROWS
    ]
    report = drift_report(configs)
    assert len(report.rows) == len(PAPER_ROWS)
    record["table3_drift"] = report.as_dict()

    violations = validate(record)
    assert violations == [], f"schema violations: {violations}"
    with open(RESULTS_PATH, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print()
    print(json.dumps(record, indent=2))
    benchmark.extra_info.update(record)
