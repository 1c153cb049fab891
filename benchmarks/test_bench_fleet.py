"""Multi-chip fleet bench: scaling at matched p99, affinity, parity audit.

Records, into ``benchmarks/BENCH_fleet.json``, the fleet's three headline
claims:

* **throughput scaling at matched tail latency** — million-request bursty
  traces drained through the virtual-time fleet simulator at 1/2/4 chips,
  each offered the same 45% utilization (so the 4-chip row carries 4x the
  load), with the per-batch service times *measured* on a real warm
  engine pool and a measured cold-start charge on every (chip, shape)
  first touch.  The bar: >= 3x throughput at 4 chips with p99 within
  1.25x of the single chip's;
* **cache-affinity routing** — a Zipf-skewed 32-shape mix must route
  >= 90% of requests to their home chip (warm pool, no rebuild);
* **zero wrong answers** — a real 2-chip fleet run answers bit-identically
  to the per-request sequential engine and to the single-chip fleet, with
  the front-door counters balancing.

A diurnal section drives the autoscaler through load peaks and troughs
and records how many chips it actually used versus the static fleet.

The written record passes ``python -m repro validate`` — the same gate
``scripts/verify.sh`` runs against the committed JSON.
"""

import json
import os
import time

import numpy as np

from repro.common.rng import derive_rng
from repro.common.schema import (
    FLEET_SCHEMA,
    MIN_AFFINITY_HIT_RATE,
    MIN_SCALING_4CHIP,
    MAX_P99_RATIO,
    validate,
)
from repro.serve import (
    FleetConfig,
    FleetServer,
    ServedModel,
    WarmEnginePool,
    bursty_arrivals,
    diurnal_arrivals,
    fleet_workload,
    run_fleet_load,
    run_sequential,
    synthetic_images,
)
from repro.serve.fleet import AutoscalerPolicy
from repro.serve.fleet_sim import measure_service_table, simulate_fleet
from repro.telemetry import Telemetry, use_telemetry

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "BENCH_fleet.json")

SEED = 0xF1EE7
CHIP_COUNTS = (1, 2, 4)
TRACE_N = 1_000_000
DIURNAL_N = 200_000
MAX_BATCH = 8
N_SHAPES = 32
SKEW = 0.8
UTILIZATION = 0.45
LATENCY_FRACTION = 0.25


def _calibrate():
    """Measured per-batch service times + cold-start cost, on a real pool."""
    rng = derive_rng(SEED, "fleet.bench.weights")
    w = rng.standard_normal((8, 8, 3, 3)) * 0.2
    model = ServedModel.conv(w, (12, 12), name="fleet-bench")
    telemetry = Telemetry()
    with use_telemetry(telemetry):
        pool = WarmEnginePool(
            model, max_batch=MAX_BATCH, guarded=True, autotune=False,
            telemetry=telemetry,
        )
        t0 = time.perf_counter()
        pool.warm()
        warm_s = time.perf_counter() - t0
        table = measure_service_table(pool, MAX_BATCH, model.input_shape)
    # warm() builds + packs all MAX_BATCH engines; one (chip, shape) first
    # touch in the fleet pays roughly one engine's share of that.
    return table, warm_s / MAX_BATCH


def _scaling_rows(table, cold_s):
    """1/2/4-chip drains of million-request bursty traces, 45% utilization."""
    rng = derive_rng(SEED, "fleet.bench.mix")
    weights = 1.0 / np.arange(1, N_SHAPES + 1) ** SKEW
    weights /= weights.sum()
    shapes = rng.choice(N_SHAPES, size=TRACE_N, p=weights)
    latency_flags = rng.random(TRACE_N) < LATENCY_FRACTION
    single_chip_rps = MAX_BATCH / float(table[MAX_BATCH])
    rows = []
    for chips in CHIP_COUNTS:
        offered_rps = UTILIZATION * chips * single_chip_rps
        arrivals = bursty_arrivals(TRACE_N, offered_rps, seed=SEED + chips)
        result = simulate_fleet(
            arrivals, shapes, latency_flags, chips, table,
            cold_s=cold_s, seed=SEED,
        )
        rows.append(
            {
                "chips": chips,
                "offered_rps": offered_rps,
                "throughput_rps": result.throughput_rps,
                "p50_ms": result.latency.p50_ms,
                "p99_ms": result.latency.p99_ms,
                "p99_ms_latency_class": result.latency_by_slo["latency"].p99_ms,
                "p99_ms_throughput_class": (
                    result.latency_by_slo["throughput"].p99_ms
                ),
                "affinity_hit_rate": result.affinity["hit_rate"],
                "mean_batch": result.mean_batch,
                "batches": result.batches,
            }
        )
    return rows


def _diurnal_section(table, cold_s):
    """The autoscaler vs a static fleet through two load peaks."""
    rng = derive_rng(SEED, "fleet.bench.diurnal")
    weights = 1.0 / np.arange(1, N_SHAPES + 1) ** SKEW
    weights /= weights.sum()
    shapes = rng.choice(N_SHAPES, size=DIURNAL_N, p=weights)
    latency_flags = rng.random(DIURNAL_N) < LATENCY_FRACTION
    single_chip_rps = MAX_BATCH / float(table[MAX_BATCH])
    # Mean offered ~60% of one chip, peaks ~110% (depth 0.8): the
    # autoscaler must grow through the peaks and park through the troughs.
    mean_rps = 0.6 * single_chip_rps
    arrivals = diurnal_arrivals(
        DIURNAL_N, mean_rps, seed=SEED + 7, period_s=20.0, depth=0.8
    )
    policy = AutoscalerPolicy(
        min_chips=1, backlog_per_chip=4.0, scale_up_after=2,
        park_after=25, park_backlog_per_chip=0.75,
    )
    auto = simulate_fleet(
        arrivals, shapes, latency_flags, 4, table, cold_s=cold_s,
        seed=SEED, autoscale=policy, autoscale_tick_s=0.02,
    )
    static = simulate_fleet(
        arrivals, shapes, latency_flags, 4, table, cold_s=cold_s, seed=SEED
    )
    return {
        "requests": DIURNAL_N,
        "chips": 4,
        "min_chips": policy.min_chips,
        "scale_ups": auto.scale_ups,
        "scale_parks": auto.scale_parks,
        "mean_active_chips": auto.mean_active_chips,
        "p99_ms": auto.latency.p99_ms,
        "static_p99_ms": static.latency.p99_ms,
        "static_mean_active_chips": static.mean_active_chips,
    }


def _real_fleet_section():
    """A real 2-chip fleet run audited bit-for-bit, answer by answer."""
    rng = derive_rng(SEED, "fleet.bench.real")
    models = {}
    images = {}
    for i in range(3):
        w = rng.standard_normal((4 + 2 * i, 4, 3, 3)) * 0.2
        model = ServedModel.conv(w, (8, 8), name=f"shape{i}")
        models[model.name] = model
        images[model.name] = synthetic_images(
            4, model.input_shape, seed=SEED + i
        )
    names = sorted(models)
    workload = fleet_workload(
        names, 60, 3000.0, pattern="bursty", seed=SEED, images_per_model=4
    )

    def run(chips):
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            fleet = FleetServer(
                models,
                FleetConfig(chips=chips, max_batch=4, seed=0),
                telemetry=telemetry,
            )
            with fleet:
                fleet.prewarm()
                report, outputs = run_fleet_load(fleet, workload, images)
                balanced = fleet.counters_balanced()
        return report, outputs, balanced

    report, outputs, balanced = run(2)
    _, single_outputs, _ = run(1)
    refs = {}
    for name in names:
        pool = WarmEnginePool(
            models[name], max_batch=4, guarded=True, autotune=False,
            telemetry=Telemetry(),
        )
        _, seq = run_sequential(pool, images[name])
        refs[name] = seq
    wrong = 0
    bit_identical = True
    for spec, out, single in zip(workload, outputs, single_outputs):
        assert out is not None and single is not None
        if not np.array_equal(out, refs[spec.model][spec.image_index]):
            wrong += 1
        if not np.array_equal(out, single):
            bit_identical = False
    return {
        "chips": 2,
        "requests": report.offered,
        "completed": report.completed,
        "wrong_answers": wrong,
        "bit_identical": bit_identical,
        "counters_balanced": balanced,
        "affinity_hit_rate": report.affinity["hit_rate"],
        "p99_ms": report.latency.p99_ms,
    }


def _fleet(record):
    table, cold_s = _calibrate()
    rows = _scaling_rows(table, cold_s)
    by_chips = {row["chips"]: row for row in rows}
    scaling = by_chips[4]["throughput_rps"] / by_chips[1]["throughput_rps"]
    p99_ratio = by_chips[4]["p99_ms"] / by_chips[1]["p99_ms"]
    record.update(
        {
            "schema": FLEET_SCHEMA,
            "seed": SEED,
            "arrival_pattern": "bursty",
            "requests_per_row": TRACE_N,
            "n_shapes": N_SHAPES,
            "skew": SKEW,
            "utilization": UTILIZATION,
            "latency_fraction": LATENCY_FRACTION,
            "service_table_ms": [float(s * 1e3) for s in table[1:]],
            "cold_start_ms": cold_s * 1e3,
            "rows": rows,
            "scaling_4chip": scaling,
            "p99_ratio_4v1": p99_ratio,
            "affinity_hit_rate": by_chips[4]["affinity_hit_rate"],
            "diurnal": _diurnal_section(table, cold_s),
            "real_fleet": _real_fleet_section(),
            "acceptance": {
                "scaling_bar": f">= {MIN_SCALING_4CHIP}x throughput at 4 "
                               f"chips, same utilization",
                "p99_bar": f"4-chip p99 <= {MAX_P99_RATIO}x single-chip p99",
                "affinity_bar": f">= {MIN_AFFINITY_HIT_RATE * 100:.0f}% home-"
                                f"chip hits on the skewed mix",
                "parity_bar": "real fleet bit-identical to sequential and "
                              "single-chip runs, counters balanced",
            },
        }
    )
    assert scaling >= MIN_SCALING_4CHIP, (
        f"4-chip fleet only {scaling:.2f}x single-chip throughput "
        f"(need >= {MIN_SCALING_4CHIP}x)"
    )
    assert p99_ratio <= MAX_P99_RATIO, (
        f"4-chip p99 is {p99_ratio:.2f}x the single chip's "
        f"(need <= {MAX_P99_RATIO}x)"
    )
    assert record["affinity_hit_rate"] >= MIN_AFFINITY_HIT_RATE
    assert record["real_fleet"]["wrong_answers"] == 0
    assert record["real_fleet"]["bit_identical"] is True
    assert record["real_fleet"]["counters_balanced"] is True
    violations = validate(record)
    assert violations == [], f"schema violations: {violations}"
    return scaling


def test_bench_fleet(benchmark):
    record = {}
    scaling = benchmark.pedantic(_fleet, args=(record,), rounds=1, iterations=1)
    with open(RESULTS_PATH, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print()
    print(json.dumps(record["rows"], indent=2))
    print(
        f"scaling {scaling:.2f}x | p99 ratio {record['p99_ratio_4v1']:.2f} | "
        f"affinity {record['affinity_hit_rate'] * 100:.1f}% | "
        f"autoscaler {record['diurnal']['scale_ups']} ups / "
        f"{record['diurnal']['scale_parks']} parks"
    )
