"""The data-parallel benchmark report: executed steps + scaling curves.

One entry point, :func:`build_dataparallel_report`, shared by the
``python -m repro train`` CLI and ``benchmarks/test_bench_dataparallel.py``
so both emit the same JSON document (tag ``repro.dataparallel/v1``,
checked by ``python -m repro validate`` — the verify.sh gate).  The
report has two halves:

* **executed** — a real :class:`~repro.scale.cluster.ClusterTrainer` run
  on N nodes (losses, ``comm.*`` counters, simulated step times) plus the
  parity proof: the same global batches trained at N=1, 2 and 4 produce
  bitwise-identical weights, and the one-node cluster is bitwise equal to
  plain single-node :class:`~repro.core.network.SGD`;
* **modeled curves** — weak/strong scaling and the overlap-vs-serialized
  ablation on :func:`repro.core.zoo.vgg_like_stack`, priced by the same
  :func:`repro.core.zoo.layer_cost` and scheduled through the same
  bucketed timeline the executed run uses, so the curves and the counters
  agree on what one step costs.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.common.errors import PlanError
from repro.common.rng import DEFAULT_SEED
from repro.common.schema import DATAPARALLEL_SCHEMA
from repro.core.layers import (
    AvgPool2D,
    Conv2D,
    Dense,
    Flatten,
    ReLU,
    SoftmaxCrossEntropy,
)
from repro.core.network import SGD, Sequential, synthetic_image_dataset
from repro.core.zoo import LayerCost, layer_cost, vgg_like_stack
from repro.hw.spec import DEFAULT_SPEC, SW26010Spec
from repro.scale.cluster import (
    ClusterFaultSpec,
    ClusterTrainer,
    plan_buckets,
    simulate_step_timeline,
    weights_bitwise_equal,
)
from repro.scale.network import InterconnectModel
from repro.telemetry import Telemetry, use_telemetry

#: Node counts for the modeled scaling sweeps.
SCALING_NODES = (1, 2, 4, 8, 16, 32, 64)
#: Node counts for the overlap-vs-serialized ablation (the >=1.2x claim).
OVERLAP_NODES = (16, 32, 64)
#: Per-node batch for weak scaling and the ablation (comm/compute ~ 0.6).
WEAK_PER_NODE_BATCH = 128
#: Global batch for strong scaling (shrinks to 8/node at 64 nodes).
STRONG_GLOBAL_BATCH = 512


# ---------------------------------------------------------------------------
# the executed model (small enough to really train in a test)
# ---------------------------------------------------------------------------


def small_cnn_factory(seed: int = DEFAULT_SEED):
    """A deterministic factory for the executed cluster runs.

    Every call rebuilds the identical tiny CNN (fresh RNG from ``seed``),
    which is exactly what :class:`ClusterTrainer` requires of its
    replicas.
    """

    def factory() -> Sequential:
        rng = np.random.default_rng(seed)
        return Sequential(
            [
                Conv2D(3, 8, 3, 3, rng=rng),
                ReLU(),
                AvgPool2D(2),
                Flatten(),
                Dense(8 * 4 * 4, 10, rng=rng),
            ]
        )

    return factory


EXECUTED_INPUT_SHAPE = (3, 10, 10)
EXECUTED_CLASSES = 10


# ---------------------------------------------------------------------------
# modeled curves (shared cost and timeline with the executed path)
# ---------------------------------------------------------------------------


def _timeline_row(
    costs: Sequence[LayerCost],
    nodes: int,
    interconnect: InterconnectModel,
    topology: str,
    bucket_bytes: int,
    per_node_batch: int,
    overlap: bool = True,
) -> Dict[str, float]:
    timeline = simulate_step_timeline(
        costs,
        nodes,
        interconnect,
        topology,
        plan_buckets(costs, bucket_bytes),
        overlap=overlap,
    )
    return {
        "nodes": nodes,
        "per_node_batch": per_node_batch,
        "compute_seconds": timeline.compute_seconds,
        "comm_seconds": timeline.comm_seconds,
        "exposed_comm_seconds": timeline.exposed_comm_seconds,
        "step_seconds": timeline.step_seconds,
        "samples_per_second": nodes * per_node_batch / timeline.step_seconds,
        "comm_compute_ratio": timeline.comm_compute_ratio,
    }


def weak_scaling_rows(
    interconnect: InterconnectModel,
    topology: str,
    bucket_bytes: int,
    node_counts: Sequence[int] = SCALING_NODES,
    per_node_batch: int = WEAK_PER_NODE_BATCH,
    spec: SW26010Spec = DEFAULT_SPEC,
) -> List[Dict[str, float]]:
    """Fixed per-node batch; efficiency = t(1) / t(N) (ideal: flat)."""
    costs = [layer_cost(layer, spec) for layer in vgg_like_stack(per_node_batch)]
    rows = [
        _timeline_row(costs, n, interconnect, topology, bucket_bytes, per_node_batch)
        for n in node_counts
    ]
    base = rows[0]["step_seconds"]
    for row in rows:
        row["efficiency"] = base / row["step_seconds"]
    return rows


def strong_scaling_rows(
    interconnect: InterconnectModel,
    topology: str,
    bucket_bytes: int,
    node_counts: Sequence[int] = SCALING_NODES,
    global_batch: int = STRONG_GLOBAL_BATCH,
    spec: SW26010Spec = DEFAULT_SPEC,
) -> List[Dict[str, float]]:
    """Fixed global batch; efficiency = t(1) / (N * t(N)) (ideal: 1)."""
    rows = []
    for n in node_counts:
        per_node = max(1, global_batch // n)
        costs = [layer_cost(layer, spec) for layer in vgg_like_stack(per_node)]
        rows.append(
            _timeline_row(costs, n, interconnect, topology, bucket_bytes, per_node)
        )
    base = rows[0]["step_seconds"]
    for row in rows:
        row["efficiency"] = base / (row["nodes"] * row["step_seconds"])
    return rows


def overlap_rows(
    interconnect: InterconnectModel,
    topology: str,
    bucket_bytes: int,
    node_counts: Sequence[int] = OVERLAP_NODES,
    per_node_batch: int = WEAK_PER_NODE_BATCH,
    spec: SW26010Spec = DEFAULT_SPEC,
) -> List[Dict[str, float]]:
    """Overlapped bucketed allreduce vs the serialized schedule."""
    costs = [layer_cost(layer, spec) for layer in vgg_like_stack(per_node_batch)]
    buckets = plan_buckets(costs, bucket_bytes)
    rows = []
    for n in node_counts:
        timeline = simulate_step_timeline(
            costs, n, interconnect, topology, buckets, overlap=True
        )
        rows.append(
            {
                "nodes": n,
                "overlapped_seconds": timeline.step_seconds,
                "serialized_seconds": timeline.serialized_seconds,
                "speedup": timeline.overlap_speedup,
                "exposed_comm_seconds": timeline.exposed_comm_seconds,
                "comm_compute_ratio": timeline.comm_compute_ratio,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# parity proof (the acceptance criterion)
# ---------------------------------------------------------------------------


def run_parity_check(
    seed: int = DEFAULT_SEED,
    global_batch: int = 16,
    steps: int = 2,
    node_counts: Sequence[int] = (1, 2, 4),
    lr: float = 0.05,
    momentum: float = 0.9,
) -> Dict[str, object]:
    """Train the same global batches at several node counts; compare bits.

    All node counts share the micro-batch grain (``global_batch // max
    nodes``), so the decomposition into micro-gradients — and therefore
    every reduced value — is identical; only the sharding differs.  Also
    checks the degenerate case: a one-node cluster at full grain must be
    bitwise equal to plain single-node :class:`SGD` on the same data.
    """
    max_nodes = max(node_counts)
    if global_batch % max_nodes != 0:
        raise PlanError(
            f"global batch {global_batch} must be divisible by {max_nodes}"
        )
    grain = global_batch // max_nodes
    factory = small_cnn_factory(seed)
    c, h, w = EXECUTED_INPUT_SHAPE
    x, labels = synthetic_image_dataset(
        steps * global_batch, c, h, w, EXECUTED_CLASSES,
        rng=np.random.default_rng(seed + 1),
    )
    trainers = {}
    for n in node_counts:
        trainer = ClusterTrainer(
            factory, n, EXECUTED_INPUT_SHAPE, lr=lr, momentum=momentum, grain=grain
        )
        for s in range(steps):
            lo = s * global_batch
            trainer.step(x[lo : lo + global_batch], labels[lo : lo + global_batch])
        trainers[n] = trainer
    reference = trainers[node_counts[0]]
    pairwise = {
        str(n): weights_bitwise_equal(reference.weights(), trainers[n].weights())
        for n in node_counts
    }
    # Degenerate case: cluster(1, grain=B) vs plain SGD, same data.
    plain = factory()
    head = SoftmaxCrossEntropy()
    optimizer = SGD(plain, lr=lr, momentum=momentum)
    for s in range(steps):
        lo = s * global_batch
        xb, yb = x[lo : lo + global_batch], labels[lo : lo + global_batch]
        head.forward(plain.forward(xb), yb)
        plain.backward(head.backward())
        optimizer.step()
    solo = ClusterTrainer(factory, 1, EXECUTED_INPUT_SHAPE, lr=lr, momentum=momentum)
    for s in range(steps):
        lo = s * global_batch
        solo.step(x[lo : lo + global_batch], labels[lo : lo + global_batch])
    matches_plain = weights_bitwise_equal(plain, solo.weights())
    lockstep = all(t.replicas_in_lockstep() for t in trainers.values())
    return {
        "node_counts": list(node_counts),
        "global_batch": global_batch,
        "grain": grain,
        "steps": steps,
        "bitwise_identical": all(pairwise.values()) and matches_plain and lockstep,
        "pairwise_vs_first": pairwise,
        "matches_plain_sgd": matches_plain,
        "replicas_in_lockstep": lockstep,
    }


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------


def build_dataparallel_report(
    nodes: int = 4,
    topology: str = "ring",
    bucket_bytes: int = 1 << 20,
    global_batch: int = 32,
    steps: int = 4,
    seed: int = DEFAULT_SEED,
    grain: Optional[int] = None,
    overlap: bool = True,
    faults: Optional[ClusterFaultSpec] = None,
    jobs: Optional[int] = None,
    interconnect: Optional[InterconnectModel] = None,
    spec: SW26010Spec = DEFAULT_SPEC,
    parity_steps: int = 2,
) -> Dict[str, object]:
    """Execute a cluster run and assemble the full benchmark report."""
    interconnect = interconnect if interconnect is not None else InterconnectModel()
    telemetry = Telemetry()
    c, h, w = EXECUTED_INPUT_SHAPE
    x, labels = synthetic_image_dataset(
        steps * global_batch, c, h, w, EXECUTED_CLASSES,
        rng=np.random.default_rng(seed + 1),
    )
    trainer = ClusterTrainer(
        small_cnn_factory(seed),
        nodes,
        EXECUTED_INPUT_SHAPE,
        topology=topology,
        bucket_bytes=bucket_bytes,
        overlap=overlap,
        grain=grain,
        interconnect=interconnect,
        spec=spec,
        faults=faults,
        jobs=jobs,
        telemetry=telemetry,
    )
    reports = []
    with use_telemetry(telemetry):
        for s in range(steps):
            lo = s * global_batch
            reports.append(
                trainer.step(x[lo : lo + global_batch], labels[lo : lo + global_batch])
            )
    counters = telemetry.counters.as_dict()
    step_seconds = [r.step_seconds for r in reports]
    fault_events = [event for r in reports for event in r.fault_events]
    parity = run_parity_check(seed=seed, global_batch=16, steps=parity_steps)
    weak = weak_scaling_rows(interconnect, topology, bucket_bytes, spec=spec)
    strong = strong_scaling_rows(interconnect, topology, bucket_bytes, spec=spec)
    ablation = overlap_rows(interconnect, topology, bucket_bytes, spec=spec)
    total_step = math.fsum(step_seconds)
    return {
        "schema": DATAPARALLEL_SCHEMA,
        "seed": seed,
        "topology": topology,
        "bucket_bytes": bucket_bytes,
        "global_batch": global_batch,
        "steps": steps,
        "nodes_executed": nodes,
        "jobs": trainer.resolved_jobs,
        "overlap": overlap,
        "losses": [r.loss for r in reports],
        "final_loss": reports[-1].loss,
        "final_accuracy": reports[-1].accuracy,
        "replicas_in_lockstep": trainer.replicas_in_lockstep(),
        "step_seconds": step_seconds,
        "throughput_samples_per_second": (
            steps * global_batch / total_step if total_step > 0 else 0.0
        ),
        "comm_compute_ratio": reports[-1].timeline.comm_compute_ratio,
        "comm_counters": {
            name: value for name, value in counters.items() if name.startswith("comm.")
        },
        "fault_events": fault_events,
        "parity": parity,
        "weak_scaling": weak,
        "strong_scaling": strong,
        "overlap_ablation": ablation,
    }
