"""Fast-path engine bench: before/after throughput of the ``mesh-fast`` tier.

Records, into ``benchmarks/BENCH_fastpath.json``:

* per-convolution wall time of the full bus-protocol simulation (``mesh``)
  vs the verified fast path (``mesh-fast``, steady state) on a Fig. 7-style
  layer, with the bit-identity check and the speedup;
* configurations/second for a Fig. 7 subset, serial vs ``jobs=4``;
* end-to-end train-step time of the ``examples/train_cnn.py`` network
  (first step pays planning, steady step reuses every memoized layer).

The speedup floor asserted here (>= 5x) is the PR's acceptance bar; the
measured ratio is typically far higher.
"""

import json
import os
import time

import numpy as np

from repro.common.schema import FASTPATH_SCHEMA, validate
from repro.core.conv import ConvolutionEngine, clear_timing_cache
from repro.core.layers import SoftmaxCrossEntropy
from repro.core.ldm_blocking import ImageBlocking
from repro.core.network import SGD, synthetic_image_dataset
from repro.core.params import ConvParams
from repro.core.plans import ImageSizeAwarePlan
from repro.experiments import fig7

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "BENCH_fastpath.json")

#: The acceptance configuration: 64x64 output, 3x3 filters, B=128.
ACCEPT_PARAMS = ConvParams.from_output(ni=8, no=8, ro=64, co=64, kr=3, kc=3, b=128)
#: Fixed blocking so both backends execute the identical tile schedule.
ACCEPT_BLOCKING = ImageBlocking(b_b=128, b_co=64)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def test_bench_fastpath(benchmark):
    record = {"schema": FASTPATH_SCHEMA}

    # -- 1. conv forward: mesh vs mesh-fast, same plan, same inputs --------
    rng = np.random.default_rng(0xC0FFEE)
    x = rng.standard_normal(ACCEPT_PARAMS.input_shape)
    w = rng.standard_normal(ACCEPT_PARAMS.filter_shape)

    def plan():
        return ImageSizeAwarePlan(ACCEPT_PARAMS, blocking=ACCEPT_BLOCKING)

    mesh_engine = ConvolutionEngine(plan(), backend="mesh")
    (y_mesh, _), mesh_seconds = _timed(mesh_engine.run, x, w)

    fast_engine = ConvolutionEngine(plan(), backend="mesh-fast")
    (y_first, _), verify_seconds = _timed(fast_engine.run, x, w)
    (y_fast, _), fast_seconds = benchmark.pedantic(
        _timed, args=(fast_engine.run, x, w), rounds=1, iterations=1
    )

    assert np.array_equal(y_mesh, y_first), "verification run must match mesh"
    assert np.array_equal(y_mesh, y_fast), "fast path must stay bit-identical"
    speedup = mesh_seconds / fast_seconds
    assert speedup >= 5.0, (
        f"fast path only {speedup:.1f}x faster than mesh "
        f"({mesh_seconds:.3f}s vs {fast_seconds:.3f}s)"
    )
    record["conv_forward"] = {
        "params": str(ACCEPT_PARAMS),
        "blocking": {"b_b": ACCEPT_BLOCKING.b_b, "b_co": ACCEPT_BLOCKING.b_co},
        "mesh_seconds": round(mesh_seconds, 4),
        "mesh_fast_verify_seconds": round(verify_seconds, 4),
        "mesh_fast_seconds": round(fast_seconds, 4),
        "speedup": round(speedup, 1),
        "bit_identical": True,
    }

    # -- 2. Fig. 7 subset: configurations/second, serial vs --jobs 4 ------
    configs = fig7.fig7_configs()[:12]
    clear_timing_cache()
    serial, serial_seconds = _timed(fig7.run, configs=configs, jobs=1)
    parallel, parallel_seconds = _timed(fig7.run, configs=configs, jobs=4)
    assert parallel == serial, "--jobs must not change results"
    record["fig7_subset"] = {
        "configs": len(configs),
        "serial_seconds": round(serial_seconds, 4),
        "jobs4_seconds": round(parallel_seconds, 4),
        "serial_configs_per_second": round(len(configs) / serial_seconds, 2),
        "jobs4_configs_per_second": round(len(configs) / parallel_seconds, 2),
    }

    # -- 3. examples/train_cnn.py: end-to-end train step -------------------
    import importlib.util

    example = os.path.join(
        os.path.dirname(__file__), os.pardir, "examples", "train_cnn.py"
    )
    spec = importlib.util.spec_from_file_location("train_cnn_bench", example)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    net_rng = np.random.default_rng(7)
    data, labels = synthetic_image_dataset(
        num_samples=16, channels=4, height=12, width=12, num_classes=10, rng=net_rng
    )
    network = module.build_network(net_rng)
    optimizer = SGD(network, lr=0.02, momentum=0.9)
    loss_head = SoftmaxCrossEntropy()

    def train_step():
        loss = loss_head.forward(network.forward(data), labels)
        network.backward(loss_head.backward())
        optimizer.step()
        return loss

    _, first_step_seconds = _timed(train_step)  # pays planning
    _, steady_step_seconds = _timed(train_step)  # memoized plans + engines
    record["train_step"] = {
        "batch": int(data.shape[0]),
        "first_step_seconds": round(first_step_seconds, 4),
        "steady_step_seconds": round(steady_step_seconds, 4),
    }

    violations = validate(record)
    assert violations == [], f"schema violations: {violations}"
    with open(RESULTS_PATH, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print()
    print(json.dumps(record, indent=2))
    benchmark.extra_info.update(record)
