"""Serving bench: dynamic batching vs per-request, warm cache, packing.

Records, into ``benchmarks/BENCH_serve.json``:

* requests/sec through the dynamic batcher at a saturating Poisson
  arrival rate vs the per-request sequential baseline on the same warm
  machinery, with the speedup ratio and latency percentiles;
* proof that the batched outputs are **bit-identical** to the
  per-request outputs (the image-size-aware family preserves per-element
  accumulation order across batch extents);
* warm-cache evidence: tuner measurements at server start vs in steady
  state (the steady-state delta must be zero);
* the memoized weight-layout packing microbenchmark: repeated forward
  passes with and without the packed filter operands.

Acceptance bars asserted here: batched throughput >= 3x sequential at
the saturating rate, zero steady-state tuner measurements, and packed
repeat-inference not slower than the unpacked path.  The written record
carries the ``repro.serve/v1`` tag and passes ``python -m repro
validate``, which holds the same bars.
"""

import json
import os
import time

import numpy as np

from repro.common.schema import (
    MAX_PACKED_RATIO,
    MIN_BATCHED_SPEEDUP,
    SERVE_SCHEMA,
    validate,
)
from repro.core.conv import ConvolutionEngine
from repro.core.params import ConvParams
from repro.core.planner import plan_convolution
from repro.serve import (
    InferenceServer,
    ServedModel,
    ServerConfig,
    WarmEnginePool,
    run_load,
    run_sequential,
    synthetic_images,
)
from repro.telemetry import Telemetry

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "BENCH_serve.json")

#: The served layer: 16->16 channels, 16x16 images, 3x3 filters.
NI, NO, HW, K = 16, 16, 16, 3

#: Saturating load: arrivals far faster than the engine drains them, so
#: the batcher always finds a full queue and coalescing is the only
#: variable under test.
N_REQUESTS = 128
RATE_RPS = 200_000.0
MAX_BATCH = 16


def _model():
    rng = np.random.default_rng(0x5EED)
    w = rng.standard_normal((NO, NI, K, K)) * np.sqrt(2.0 / (NI * K * K))
    bias = rng.standard_normal(NO) * 0.1
    return ServedModel.conv(w, (HW, HW), bias=bias, activation="relu")


def _throughput(record):
    model = _model()
    images = synthetic_images(N_REQUESTS, model.input_shape, seed=1)

    baseline_pool = WarmEnginePool(
        model, max_batch=MAX_BATCH, autotune=False, guarded=True
    )
    seq_report, seq_outputs = run_sequential(baseline_pool, images)

    config = ServerConfig(
        max_batch=MAX_BATCH,
        max_wait_s=0.001,
        queue_depth=max(256, N_REQUESTS),
        workers=1,
        autotune=False,
        guarded=True,
    )
    telem = Telemetry()
    with InferenceServer(model, config, telemetry=telem) as server:
        bat_report, bat_outputs = run_load(
            server, images, rate_rps=RATE_RPS, seed=2
        )
    assert bat_report.completed == N_REQUESTS, bat_report.as_dict()
    assert server.counters_balanced()

    # Bit-identity: every batched output equals its per-request twin.
    for batched, alone in zip(bat_outputs, seq_outputs):
        np.testing.assert_array_equal(batched, alone)

    speedup = bat_report.rps / seq_report.rps
    assert speedup >= MIN_BATCHED_SPEEDUP, (
        f"dynamic batching gives only {speedup:.2f}x over sequential "
        f"({bat_report.rps:.0f} vs {seq_report.rps:.0f} rps)"
    )
    record["throughput"] = {
        "layer": f"ni={NI} no={NO} image={HW}x{HW} k={K}",
        "sequential": seq_report.as_dict(),
        "batched": bat_report.as_dict(),
        "speedup": round(speedup, 2),
        "bit_identical_outputs": True,
        "mean_batch": round(
            telem.counters.get("serve.batched_images")
            / max(telem.counters.get("serve.batches"), 1),
            2,
        ),
    }
    return speedup


def _warm_cache(record, tmp_path):
    model = _model()
    config = ServerConfig(
        max_batch=4,
        max_wait_s=0.001,
        queue_depth=64,
        workers=1,
        autotune=True,
        plan_cache=str(tmp_path / "plans"),
        guarded=True,
    )
    telem = Telemetry()
    with InferenceServer(model, config, telemetry=telem) as server:
        warm_measurements = telem.counters.get("tune.measurements")
        warm_packs = telem.counters.get("engine.filter_pack.packs")
        images = synthetic_images(12, model.input_shape, seed=3)
        reqs = [server.submit(x) for x in images]
        for req in reqs:
            req.result(timeout=60.0)
        steady_measurements = (
            telem.counters.get("tune.measurements") - warm_measurements
        )
        steady_packs = telem.counters.get("engine.filter_pack.packs") - warm_packs
    assert warm_measurements > 0, "warm-up should have tuned"
    assert steady_measurements == 0, "steady state re-tuned"
    assert steady_packs == 0, "steady state re-packed filters"

    # A restarted server over the same cache directory warms hit-only.
    second = Telemetry()
    with InferenceServer(model, config, telemetry=second):
        pass
    assert second.counters.get("tune.measurements") == 0
    record["warm_cache"] = {
        "warm_tuner_measurements": warm_measurements,
        "steady_state_tuner_measurements": steady_measurements,
        "warm_filter_packs": warm_packs,
        "steady_state_filter_packs": steady_packs,
        "restart_tuner_measurements": second.counters.get("tune.measurements"),
        "restart_cache_hits": second.counters.get("plan_cache.hits"),
    }


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _filter_pack(record):
    params = ConvParams(ni=NI, no=NO, ri=HW + K - 1, ci=HW + K - 1,
                        kr=K, kc=K, b=8)
    plan = plan_convolution(params).plan
    rng = np.random.default_rng(4)
    x = rng.standard_normal(params.input_shape)
    w = rng.standard_normal(params.filter_shape)

    unpacked_engine = ConvolutionEngine(plan, backend="numpy")
    packed_engine = ConvolutionEngine(plan, backend="numpy")
    unpacked_engine.run(x, w)  # warm caches / lazy imports
    packed_engine.prepack_filters(w, version=0)

    unpacked = _best_of(lambda: unpacked_engine.run(x, w))
    packed = _best_of(lambda: packed_engine.run(x, w, filter_version=0))
    np.testing.assert_array_equal(
        packed_engine.run(x, w, filter_version=0)[0],
        unpacked_engine.run(x, w)[0],
    )
    assert packed <= unpacked * MAX_PACKED_RATIO, (
        f"packed repeat-inference ({packed:.5f}s) slower than unpacked "
        f"({unpacked:.5f}s)"
    )
    record["filter_pack"] = {
        "params": str(params),
        "unpacked_seconds": round(unpacked, 6),
        "packed_seconds": round(packed, 6),
        "speedup": round(unpacked / packed, 2),
    }


def test_bench_serve(benchmark, tmp_path):
    record = {"schema": SERVE_SCHEMA}
    speedup = benchmark.pedantic(
        _throughput, args=(record,), rounds=1, iterations=1
    )
    _warm_cache(record, tmp_path)
    _filter_pack(record)
    record["summary"] = {
        "batched_vs_sequential_speedup": round(speedup, 2),
        "acceptance_bar": f">= {MIN_BATCHED_SPEEDUP}x at saturating arrival rate",
    }
    violations = validate(record)
    assert violations == [], f"schema violations: {violations}"
    with open(RESULTS_PATH, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print()
    print(json.dumps(record, indent=2))
    benchmark.extra_info.update(record)
