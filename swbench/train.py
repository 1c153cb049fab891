"""``train``: synchronous data-parallel SGD on the simulated mesh.

Closed loop: each step waits for the previous one.  The only workload
through the register-communication mesh (``core.register_comm`` /
``hw.mesh``) and the exact gradient exchange (``scale.exchange``).  Its
convolutions take the conv engine's functional path with the
``mesh-fast`` backend, where ``serve`` uses ``numpy``.

``ClusterTrainer(nodes=2, grain=16, jobs=1)`` trains a seeded small CNN
(8->16->16 channel 3x3 convolutions on 8x12x12 inputs, average pooling,
a dense classifier) on a global batch of 32 from
``synthetic_image_dataset``.  The trainer is built and one warm-up step
runs during set-up (the mesh-fast protocol is verified there); timed
steps follow until ``seconds`` have passed.  Throughput is the global
batch over the median step time, so a few steps slowed by host
contention do not move it.  The node fan-out is pinned
to one thread: on two cores two threads ran slower than one, and
overlapping node spans would no longer add up to the step time.

After the timed region, two untimed replays check the numbers: a replay
under a counters-only telemetry session reads the exact per-step mesh
counts, and a one-node run at the same grain must reproduce the weights
bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from swbench.common import (
    Check,
    Context,
    Result,
    counters_session,
    derive_seed,
    offered_latencies,
)

NODES = 2
GLOBAL_BATCH = 32
GRAIN = 16
#: Small enough (a step is ~0.26 s on a 2-core x86 host) that a 30 s run
#: takes 100+ steps: enough for a p90 with ten steps beyond it.
INPUT_SHAPE = (8, 12, 12)
TINY_INPUT_SHAPE = (8, 10, 10)
CLASSES = 10
#: Distinct global batches the steps cycle through.
DATASET_BATCHES = 16
#: Steps (warm-up included) compared against the replays.
PREFIX_STEPS = 2
MIN_TIMED_STEPS = 3
STEP_LIMIT_MS = 5000.0
#: The traced run leaves the program's counters off here: per-CPE FMA
#: counting costs about half a step when enabled.  Exact counts come from
#: the counted replay instead.
COUNTERS_WHEN_TRACED = False


def _network_factory(seed: int, input_shape):
    from repro.core.layers import AvgPool2D, Conv2D, Dense, Flatten, ReLU
    from repro.core.network import Sequential

    c, h, w = input_shape
    flat = 16 * ((h - 4) // 2) * ((w - 4) // 2)

    def build() -> Sequential:
        rng = np.random.default_rng(derive_seed(seed, 1))
        conv = dict(rng=rng, engine="simulated", backend="mesh-fast")
        return Sequential(
            [
                Conv2D(c, 16, 3, 3, **conv),
                ReLU(),
                Conv2D(16, 16, 3, 3, **conv),
                ReLU(),
                AvgPool2D(2),
                Flatten(),
                Dense(flat, CLASSES, rng=rng),
            ]
        )

    return build


def _params(trainer) -> List[np.ndarray]:
    return [
        p.copy()
        for layer in trainer.weights().parameter_layers()
        for p in layer.parameters().values()
    ]


def weights_digest(arrays: List[np.ndarray]) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _replay(factory, input_shape, batches, nodes: int, telemetry=None):
    """A fresh trainer over the first ``PREFIX_STEPS`` batches.

    Returns (weights after the prefix, counters of the last step or None).
    """
    from repro.scale.cluster import ClusterTrainer
    from repro.telemetry import use_telemetry

    with use_telemetry(telemetry):
        trainer = ClusterTrainer(
            factory, nodes=nodes, input_shape=input_shape, grain=GRAIN, jobs=1
        )
        before: Dict[str, float] = {}
        for step, (x, y) in enumerate(batches[:PREFIX_STEPS]):
            if telemetry is not None and step == PREFIX_STEPS - 1:
                before = telemetry.counters.as_dict()
            trainer.step(x, y)
    if telemetry is None:
        return _params(trainer), None
    after = telemetry.counters.as_dict()
    return _params(trainer), {k: v - before.get(k, 0) for k, v in after.items()}


def run(ctx: Context, root: Path) -> Result:
    from repro.core.network import synthetic_image_dataset
    from repro.scale.cluster import ClusterTrainer

    input_shape = TINY_INPUT_SHAPE if ctx.tiny else INPUT_SHAPE
    x, labels = synthetic_image_dataset(
        GLOBAL_BATCH * DATASET_BATCHES,
        *input_shape,
        CLASSES,
        rng=np.random.default_rng(derive_seed(ctx.seed, 0)),
    )
    batches = [
        (x[i : i + GLOBAL_BATCH], labels[i : i + GLOBAL_BATCH])
        for i in range(0, len(x), GLOBAL_BATCH)
    ]
    factory = _network_factory(ctx.seed, input_shape)
    trainer = ClusterTrainer(
        factory, nodes=NODES, input_shape=input_shape, grain=GRAIN, jobs=1
    )
    losses = [trainer.step(*batches[0]).loss]
    setup_s = time.perf_counter() - ctx.t_start
    if ctx.setup_only:
        return Result(setup_s)

    node_of = {id(replica): rank for rank, replica in enumerate(trainer.replicas)}
    node_s = [0.0] * NODES
    waits: List[float] = []
    if ctx.tracer is not None:

        def node_time(layer, args, result, seconds):
            rank = node_of.get(id(args[0]))
            if rank is not None:
                node_s[rank] += seconds

        def step_done(layer, args, result, seconds):
            waits.append(seconds - max(node_s))
            node_s[:] = [0.0] * NODES

        ctx.tracer.on_exit("network.forward", node_time)
        ctx.tracer.on_exit("network.backward", node_time)
        ctx.tracer.on_exit("cluster", step_done)
        ctx.tracer.start_window()

    step_ms: List[float] = []
    prefix = None
    t0 = time.perf_counter()
    while len(step_ms) < MIN_TIMED_STEPS or time.perf_counter() - t0 < ctx.seconds:
        xb, yb = batches[(len(step_ms) + 1) % DATASET_BATCHES]
        t_step = time.perf_counter()
        report = trainer.step(xb, yb)
        step_ms.append((time.perf_counter() - t_step) * 1e3)
        losses.append(report.loss)
        if len(step_ms) == PREFIX_STEPS - 1:
            prefix = _params(trainer)
    wall = time.perf_counter() - t0
    if ctx.tracer is not None:
        ctx.tracer.stop_window()
    timeline = report.timeline

    # -- untimed replays ----------------------------------------------------
    counted, step_counts = _replay(factory, input_shape, batches, NODES, counters_session())
    one_node, _ = _replay(factory, input_shape, batches, 1)
    prefix_digest = weights_digest(prefix)
    hits = step_counts.get("engine.timing_cache.hits", 0)
    misses = step_counts.get("engine.timing_cache.misses", 0)

    p50, p90 = offered_latencies(step_ms, 0, STEP_LIMIT_MS)
    steps = len(step_ms)
    sim_images_per_s = GLOBAL_BATCH / timeline.step_seconds
    return Result(
        setup_s=setup_s,
        wall_s=wall,
        ops_per_s=GLOBAL_BATCH / statistics.median(step_ms) * 1e3,
        p50_ms=p50,
        p90_ms=p90,
        op_count=steps,
        attempted=steps + 1,  # + the warm-up step
        failed=0,
        checks=[
            Check(
                "replicas in bitwise lockstep",
                trainer.replicas_in_lockstep(),
                f"{NODES} replicas after {steps + 1} steps",
            ),
            Check(
                "losses finite",
                all(math.isfinite(v) for v in losses),
                f"first {losses[0]:.4f}, last {losses[-1]:.4f}",
            ),
            Check(
                "prefix equals a one-node run at the same grain",
                weights_digest(one_node) == prefix_digest,
                f"weights after {PREFIX_STEPS} steps, grain {GRAIN}, bitwise",
            ),
            Check(
                "prefix equals the counted replay",
                weights_digest(counted) == prefix_digest,
                "counters on vs off, bitwise",
            ),
        ],
        ledger={
            "sim_images_per_s": sim_images_per_s,
            "sim_step_s": timeline.step_seconds,
            "prefix_weights_sha256": prefix_digest,
            "mesh_bus_bytes": step_counts.get("mesh.bus_bytes", 0),
            "mesh_flops": step_counts.get("cpe.flops", 0),
            "engine_runs": step_counts.get("engine.runs", 0),
        },
        layers={
            "cluster.sim_images_per_s": sim_images_per_s,
            "cluster.sim_compute_s": timeline.compute_seconds,
            "cluster.sim_exposed_comm_s": timeline.exposed_comm_seconds,
            "cluster.wait_s": sum(waits) / len(waits) if waits else 0.0,
            "mesh.bus_bytes": step_counts.get("mesh.bus_bytes", 0),
            "mesh.flops": step_counts.get("cpe.flops", 0),
            "engine.timing_cache.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        },
        notes=[
            f"{steps} timed steps of {GLOBAL_BATCH} images on {NODES} nodes "
            f"(grain {GRAIN}); simulated step {timeline.step_seconds * 1e3:.4f} ms",
        ],
    )
