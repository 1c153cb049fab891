"""Multi-node scaling: data-parallel training across TaihuLight nodes.

The paper's introduction frames swDNN as the node-level substrate for
"scaling the training process of one huge network to the entire cluster"
— the part it leaves to future work.  This package models that layer:

* :mod:`repro.scale.network` — the Sunway interconnect (injection
  bandwidth per node, ring and tree allreduce time models);
* :mod:`repro.scale.exchange` — the data-parallel side of the
  gradient-exchange contract: exactly-rounded micro-gradient reduction
  and the shared :class:`ClusterExchange` replicas update through;
* :mod:`repro.scale.cluster` — *executed* N-node training: real model
  replicas, sharded global batches, bucketed allreduce scheduled on a
  simulated timeline with comm/compute overlap, straggler/partition
  chaos, and ``comm.*`` telemetry;
* :mod:`repro.scale.report` — the benchmark report both the ``train``
  CLI and the bench emit (the executed run plus weak/strong-scaling and
  overlap curves modeled on the same timeline).

Every per-node compute time comes from :func:`repro.core.zoo.layer_cost`,
the one per-layer training-cost path.

This is an *extension* beyond the paper's evaluation; its benches are
labeled as such.
"""

from repro.scale.network import InterconnectModel, allreduce_time
from repro.scale.exchange import ClusterExchange, exact_sum, reduce_micro_gradients
from repro.scale.cluster import (
    ClusterFaultSpec,
    ClusterTrainer,
    GradientBucket,
    LayerCost,
    StepTimeline,
    plan_buckets,
    profile_network,
    simulate_step_timeline,
    weights_bitwise_equal,
)
from repro.scale.report import build_dataparallel_report

__all__ = [
    "InterconnectModel",
    "allreduce_time",
    "ClusterExchange",
    "exact_sum",
    "reduce_micro_gradients",
    "ClusterFaultSpec",
    "ClusterTrainer",
    "GradientBucket",
    "LayerCost",
    "StepTimeline",
    "plan_buckets",
    "profile_network",
    "simulate_step_timeline",
    "weights_bitwise_equal",
    "build_dataparallel_report",
]
