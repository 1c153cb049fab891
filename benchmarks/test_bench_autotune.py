"""Autotuned-plan bench: tuned vs heuristic, fused vs unfused, sharded chip.

Records, into ``benchmarks/BENCH_autotune.json``:

* heuristic-planner vs autotuned per-CG Gflop/s on the Table III row-1
  configuration (Ni=No=128, 64x64 output, 3x3, B=128);
* fused conv->ReLU->pool step time of the *fusion-aware* tuned plan vs the
  heuristic plan followed by unfused ReLU and pooling memory passes;
* 1-CG vs 4-CG batch-sharded chip throughput;
* cold-tune vs warm-cache wall time, with the hit/measured counters that
  prove the warm run re-measured nothing.

The asserted bars — tuned+fused at least 1.3x the heuristic unfused
pipeline, 4 CGs more than 2.5x one — are ``common.schema``'s; the written
record carries the ``repro.autotune/v1`` tag and passes
``python -m repro validate``, which holds a committed record to the same
bars.
"""

import json
import os
import time

import numpy as np

from repro.common.schema import (
    AUTOTUNE_SCHEMA,
    MIN_FUSED_SPEEDUP,
    MIN_SHARDING_SCALING,
    validate,
)
from repro.core.conv import ConvolutionEngine
from repro.core.fusion import unfused_pipeline_seconds
from repro.core.params import ConvParams
from repro.core.planner import plan_convolution
from repro.core.reference import conv2d_reference
from repro.core.sharding import evaluate_chip_sharded
from repro.tune import PlanCache, autotune

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "BENCH_autotune.json")

#: Table III row 1: the image-size-aware plan's flagship configuration.
ACCEPT_PARAMS = ConvParams.from_output(
    ni=128, no=128, ro=64, co=64, kr=3, kc=3, b=128
)
#: A mesh-divisible shape small enough for the functional parity check.
PARITY_PARAMS = ConvParams(ni=16, no=16, ri=10, ci=10, kr=3, kc=3, b=8)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def test_bench_autotune(benchmark, tmp_path):
    record = {"schema": AUTOTUNE_SCHEMA}

    # -- 1. heuristic vs tuned (unfused) -----------------------------------
    heuristic_plan = plan_convolution(ACCEPT_PARAMS).plan
    heuristic = ConvolutionEngine(heuristic_plan).evaluate()
    tuned = autotune(ACCEPT_PARAMS, cache=False, top_k=12, jobs=4)
    assert tuned.gflops >= heuristic.gflops, "tuner must never lose to heuristic"
    record["heuristic_vs_tuned"] = {
        "params": str(ACCEPT_PARAMS),
        "heuristic_gflops": round(heuristic.gflops, 1),
        "tuned_gflops": round(tuned.gflops, 1),
        "tuned_plan": tuned.candidate.describe(),
        "candidates": tuned.candidates,
        "measured": tuned.measured,
        "speedup": round(tuned.gflops / heuristic.gflops, 3),
    }

    # -- 2. fused pipeline vs unfused pipeline ------------------------------
    fused_tuned = autotune(ACCEPT_PARAMS, cache=False, top_k=12, jobs=4, fused_pool=2)
    fused_report = ConvolutionEngine(fused_tuned.plan, fused_pool=2).evaluate()
    unfused_seconds = unfused_pipeline_seconds(heuristic, ACCEPT_PARAMS, pool=2)
    pipeline_speedup = unfused_seconds / fused_report.seconds
    assert pipeline_speedup >= MIN_FUSED_SPEEDUP, (
        f"tuned+fused pipeline only {pipeline_speedup:.2f}x the heuristic "
        f"unfused path (acceptance bar is {MIN_FUSED_SPEEDUP}x)"
    )
    record["fused_vs_unfused"] = {
        "stack": "conv -> ReLU -> 2x2 avg pool",
        "unfused_heuristic_ms": round(unfused_seconds * 1e3, 3),
        "fused_tuned_ms": round(fused_report.seconds * 1e3, 3),
        "fused_plan": fused_tuned.candidate.describe(),
        "speedup": round(pipeline_speedup, 3),
    }

    # -- 3. multi-CG batch sharding -----------------------------------------
    one = evaluate_chip_sharded(ACCEPT_PARAMS, num_groups=1)
    four = evaluate_chip_sharded(ACCEPT_PARAMS, num_groups=4)
    assert four.gflops > MIN_SHARDING_SCALING * one.gflops
    record["batch_sharding"] = {
        "one_cg_gflops": round(one.gflops, 1),
        "four_cg_gflops": round(four.gflops, 1),
        "scaling": round(four.gflops / one.gflops, 2),
        "four_cg_peak_fraction": round(four.efficiency, 3),
    }

    # -- 4. plan cache: cold tune, then warm hit ----------------------------
    cache = PlanCache(tmp_path)
    cold, cold_seconds = benchmark.pedantic(
        _timed,
        args=(autotune, ACCEPT_PARAMS),
        kwargs={"cache": cache, "top_k": 12, "jobs": 4},
        rounds=1,
        iterations=1,
    )
    warm, warm_seconds = _timed(
        autotune, ACCEPT_PARAMS, cache=cache, top_k=12, jobs=4
    )
    assert cold.source == "tuned" and warm.source == "cache"
    assert warm.measured == 0, "warm run must not re-measure"
    assert cache.stats.hits == 1
    assert warm.plan.signature() == cold.plan.signature()
    record["plan_cache"] = {
        "cold_tune_seconds": round(cold_seconds, 4),
        "warm_hit_seconds": round(warm_seconds, 4),
        "cold_measured": cold.measured,
        "warm_measured": warm.measured,
        "hits": cache.stats.hits,
        "misses": cache.stats.misses,
        "stores": cache.stats.stores,
    }

    # -- 5. parity: the tuned plan computes the reference convolution -------
    parity_tuned = autotune(PARITY_PARAMS, cache=False, top_k=4)
    rng = np.random.default_rng(0xC0FFEE)
    x = rng.standard_normal(PARITY_PARAMS.input_shape)
    w = rng.standard_normal(PARITY_PARAMS.filter_shape)
    out, _ = ConvolutionEngine(parity_tuned.plan).run(x, w)
    assert np.allclose(out, conv2d_reference(x, w))
    record["parity"] = {
        "params": str(PARITY_PARAMS),
        "tuned_plan": parity_tuned.candidate.describe(),
        "matches_reference": True,
    }

    violations = validate(record)
    assert violations == [], f"schema violations: {violations}"
    with open(RESULTS_PATH, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print()
    print(json.dumps(record, indent=2))
    benchmark.extra_info.update(record)
