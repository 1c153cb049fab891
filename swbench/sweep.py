"""``sweep``: the paper's evaluation path plus the autotuner's cold cost.

Offline batch, no tensor data.  Each run walks a seeded permutation of the
131 configurations of the Fig. 8 scripts.  Per configuration it makes five
public calls: ``evaluate_chip(params)`` (the Fig. 7/9 number),
``autotune(strip, cache=False)`` on the 16-row per-CG strip,
``ConvolutionEngine(plan).evaluate()`` and ``plan.estimate()`` on the tuned
plan.  ``table3.run()`` runs once per run.  The process starts with every
in-process memo cache empty, as it is for a user regenerating a figure.

A run evaluates a fixed number of configurations: ``seconds`` times
``CONFIGS_PER_S``, the rate measured on a 2-core x86 host.  The
work, and so the sim results and the memory the caches hold, depend only
on the seed and ``seconds``, never on how fast the host happens to be.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from swbench.common import (
    Check,
    Context,
    Result,
    derive_seed,
    mean,
    offered_latencies,
    percentile,
)

#: Configurations per second of ``--seconds``: sizes the sample.
CONFIGS_PER_S = 4.8
TINY_SAMPLE = 3
#: Relative tolerance against the committed Fig. 7/9 and Table III
#: numbers: they agree to ~1e-14, not bit for bit, across hosts.
RESULT_RTOL = 1e-9
#: Latency limit per configuration; a failed one counts as over it.
OP_LIMIT_MS = 2000.0
COUNTERS_WHEN_TRACED = True


def _committed(root: Path):
    """Committed chip Tflops per configuration, in Fig. 8 script order."""
    fig7 = json.loads((root / "results" / "fig7.json").read_text())
    fig9 = json.loads((root / "results" / "fig9.json").read_text())
    table3 = json.loads((root / "results" / "table3.json").read_text())
    rows = fig7["result"]["rows"] + fig9["result"]["rows"]
    return [row["swdnn_tflops"] for row in rows], table3["result"]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RESULT_RTOL * abs(b)


def run(ctx: Context, root: Path) -> Result:
    from repro.core.conv import ConvolutionEngine, evaluate_chip
    from repro.experiments import configs, table3
    from repro.hw.spec import DEFAULT_SPEC
    import repro.tune

    configurations = configs.fig8_left() + configs.fig8_center() + configs.fig8_right()
    expected_tflops, expected_table3 = _committed(root)
    order = np.random.default_rng(derive_seed(ctx.seed, 0)).permutation(
        len(configurations)
    )
    size = TINY_SAMPLE if ctx.tiny else round(CONFIGS_PER_S * ctx.seconds)
    sample = order[: max(1, min(len(order), size))]
    groups = DEFAULT_SPEC.num_core_groups
    setup_s = time.perf_counter() - ctx.t_start
    if ctx.setup_only:
        return Result(setup_s)

    if ctx.tracer is not None:
        ctx.tracer.start_window()
    t0 = time.perf_counter()
    table_rows = table3.run(jobs=1)
    op_ms = []
    done = failed = 0
    chip_mismatch = []
    errors = []
    heuristic, tuned, model_err, gain = [], [], [], []
    tiles = flops = dma_bytes = 0
    candidates = measured = 0
    for index in sample:
        params = configurations[index]
        t_op = time.perf_counter()
        try:
            chip_gflops, reports = evaluate_chip(params)
            strip = params.with_rows(params.ro // groups)
            tuned_plan = repro.tune.autotune(strip, cache=False, jobs=1)
            report = ConvolutionEngine(tuned_plan.plan).evaluate()
            estimate = tuned_plan.plan.estimate()
        except Exception as exc:  # noqa: BLE001 - counted, the sweep goes on
            failed += 1
            done += 1
            errors.append(f"config {int(index) + 1}: {exc!r}")
            continue
        op_ms.append((time.perf_counter() - t_op) * 1e3)
        chip_tflops = chip_gflops / 1e3
        if not _close(chip_tflops, expected_tflops[index]):
            chip_mismatch.append(int(index) + 1)
        tuned_tflops = groups * report.gflops / 1e3
        heuristic.append(chip_tflops)
        tuned.append(tuned_tflops)
        gain.append(tuned_tflops / chip_tflops)
        model_err.append(abs(estimate.gflops - report.gflops) / report.gflops)
        for r in list(reports) + [report]:
            tiles += r.tiles
            flops += r.flops
            dma_bytes += r.bytes_get + r.bytes_put
        candidates += tuned_plan.candidates
        measured += tuned_plan.measured
        done += 1
    wall = time.perf_counter() - t0
    if ctx.tracer is not None:
        ctx.tracer.stop_window()

    paper_error = mean(
        [abs(r.measured_gflops - r.paper_measured) / r.paper_measured for r in table_rows]
    )
    table_ok = len(table_rows) == len(expected_table3) and all(
        _close(r.measured_gflops, e["measured_gflops"])
        and _close(r.model_gflops, e["model_gflops"])
        for r, e in zip(table_rows, expected_table3)
    )
    p50, p90 = offered_latencies(op_ms, failed, OP_LIMIT_MS)
    ledger = {
        "sample": [int(i) + 1 for i in sample],
        "sim_tflops_heuristic": mean(heuristic),
        "sim_tflops_tuned": mean(tuned),
        "model_error": mean(model_err),
        "paper_error": paper_error,
        "tune_gain": mean(gain),
        "engine_tiles": tiles,
        "engine_flops": flops,
        "engine_dma_bytes": dma_bytes,
        "tune_candidates": candidates,
        "tune_measured": measured,
    }
    return Result(
        setup_s=setup_s,
        wall_s=wall,
        ops_per_s=done / wall,
        p50_ms=p50,
        p90_ms=p90,
        op_count=len(op_ms) + failed,
        attempted=done + 1,  # + the Table III run
        failed=failed,
        checks=[
            Check(
                "chip Tflops match results/fig7.json + fig9.json",
                not chip_mismatch,
                f"{done - failed - len(chip_mismatch)}/{done - failed} within "
                f"rel {RESULT_RTOL:g}"
                + (f"; mismatched configs {chip_mismatch}" if chip_mismatch else ""),
            ),
            Check(
                "Table III matches results/table3.json",
                table_ok,
                f"{len(table_rows)} rows, model and measured Gflops within rel "
                f"{RESULT_RTOL:g}",
            ),
        ],
        ledger=ledger,
        layers={
            "engine.sim_tflops_heuristic": ledger["sim_tflops_heuristic"],
            "tune.sim_tflops_tuned": ledger["sim_tflops_tuned"],
            "tune.gain": ledger["tune_gain"],
            "perf.model_error": ledger["model_error"],
            "perf.error_p50": percentile(model_err, 50.0),
            "perf.error_max": max(model_err, default=0.0),
            "perf.paper_error": paper_error,
            "engine.tiles": tiles,
            "engine.flops": flops,
            "engine.dma_bytes": dma_bytes,
            "tune.candidates": candidates,
            "tune.measured": measured,
            "tune.measured_frac": measured / candidates if candidates else 0.0,
        },
        notes=[
            f"{done} configurations, {failed} failed; Table III run once",
        ]
        + errors[:5],
    )
