"""Executed N-node data-parallel training on simulated SW26010 nodes.

:class:`ClusterTrainer` executes synchronous data-parallel SGD: it holds
N real model replicas (one per simulated node), shards every global batch
across them, runs each shard's forward/backward with real numerics,
reduces the gradients through the
:class:`~repro.scale.exchange.ClusterExchange`, and schedules the
communication on a simulated timeline over the
:class:`~repro.scale.network.InterconnectModel` — swCaffe's synchronous
data-parallel scheme, reproduced end to end.

The simulated timeline is where the performance story lives:

* **gradient bucketing** — parameter layers are packed, in backward
  order, into buckets of at most ``bucket_bytes`` (swCaffe-style), so
  small per-layer tensors amortize allreduce latency;
* **comm/compute overlap** — each bucket's allreduce is scheduled the
  moment its last layer's backward finishes, while the remaining backward
  compute still runs; only communication that spills past the end of the
  backward pass is *exposed*.  ``overlap=False`` serializes every bucket
  after the full backward — the ablation baseline;
* **chaos** — :class:`ClusterFaultSpec` injects seeded stragglers
  (per-node compute slowdown), link degradation (interconnect bandwidth
  derate) and link partitions (reroute penalty on the collective),
  reusing the fault-harness idiom of :mod:`repro.faults`.

Numerics are decoupled from timing: gradients are reduced with the
exactly-rounded sum of :mod:`repro.scale.exchange`, so the trained weights
are bit-identical across node counts and topologies — the parity the
tests prove — while the timeline depends on topology, bucketing, overlap
and chaos.  Per-node compute time is :func:`repro.core.zoo.layer_cost`,
the per-layer cost the zoo and the modeled scaling curves of
:mod:`repro.scale.report` also use (a whole SW26010 per node); the same
:func:`simulate_step_timeline` schedules both.  Per-link traffic and
allreduce spans feed the telemetry fabric as ``comm.*`` counters and
``interconnect`` track spans.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import PlanError
from repro.common.parallel import resolve_jobs
from repro.common.rng import DEFAULT_SEED, derive_rng
from repro.core.gemm_plan import GemmParams
from repro.core.layers import Conv2D, Dense, SoftmaxCrossEntropy
from repro.core.network import SGD, Sequential
from repro.core.params import ConvParams
from repro.core.zoo import LayerCost, ZooLayer, layer_cost
from repro.hw.spec import DEFAULT_SPEC, SW26010Spec
from repro.scale.exchange import ClusterExchange, reduce_micro_gradients
from repro.scale.network import InterconnectModel
from repro.telemetry import current_telemetry


# ---------------------------------------------------------------------------
# link/node chaos
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterFaultSpec:
    """Seeded straggler/partition chaos for the cluster fabric.

    The default spec is a healthy cluster that injects nothing.  Rates are
    per-step probabilities; every draw derives from ``seed`` and the step
    index (the :mod:`repro.faults` discipline), so two runs with the same
    seed observe identical fault sequences regardless of worker
    scheduling.
    """

    #: Base seed; every per-step fault stream derives from it.
    seed: int = DEFAULT_SEED
    #: Per-node, per-step probability of a compute straggler.
    straggler_rate: float = 0.0
    #: Compute-time multiplier for a straggling node (>= 1).
    straggler_slowdown: float = 2.0
    #: Per-step probability the interconnect runs degraded.
    link_degrade_rate: float = 0.0
    #: Bandwidth multiplier while degraded (in (0, 1]).
    link_degrade_factor: float = 0.5
    #: Per-step probability of a link partition (collective reroutes).
    partition_rate: float = 0.0
    #: Time multiplier on the collective while rerouting around a partition.
    partition_penalty: float = 2.0

    def __post_init__(self) -> None:
        for name in ("straggler_rate", "link_degrade_rate", "partition_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.straggler_slowdown < 1.0:
            raise ValueError(
                f"straggler_slowdown must be >= 1, got {self.straggler_slowdown}"
            )
        if not 0.0 < self.link_degrade_factor <= 1.0:
            raise ValueError(
                f"link_degrade_factor must be in (0, 1], "
                f"got {self.link_degrade_factor}"
            )
        if self.partition_penalty < 1.0:
            raise ValueError(
                f"partition_penalty must be >= 1, got {self.partition_penalty}"
            )

    @property
    def healthy(self) -> bool:
        return (
            self.straggler_rate == 0.0
            and self.link_degrade_rate == 0.0
            and self.partition_rate == 0.0
        )


@dataclass(frozen=True)
class StepFaults:
    """The chaos actually drawn for one step."""

    node_scales: Tuple[float, ...]
    link_factor: float
    partitioned: bool
    events: Tuple[str, ...]


def _draw_step_faults(
    spec: Optional[ClusterFaultSpec], nodes: int, step_index: int
) -> StepFaults:
    if spec is None or spec.healthy:
        return StepFaults((1.0,) * nodes, 1.0, False, ())
    rng = derive_rng(spec.seed, "scale.cluster.faults", step_index)
    events: List[str] = []
    scales = []
    for rank in range(nodes):
        if rng.random() < spec.straggler_rate:
            scales.append(spec.straggler_slowdown)
            events.append(f"node{rank} straggler x{spec.straggler_slowdown:g}")
        else:
            scales.append(1.0)
    link_factor = 1.0
    if rng.random() < spec.link_degrade_rate:
        link_factor = spec.link_degrade_factor
        events.append(f"link degraded to {spec.link_degrade_factor:g}x bandwidth")
    partitioned = rng.random() < spec.partition_rate
    if partitioned:
        events.append(
            f"link partition: collective rerouted "
            f"(x{spec.partition_penalty:g} time)"
        )
    return StepFaults(tuple(scales), link_factor, partitioned, tuple(events))


# ---------------------------------------------------------------------------
# per-layer simulated cost
# ---------------------------------------------------------------------------


def profile_network(
    network: Sequential,
    input_shape: Sequence[int],
    batch: int,
    spec: SW26010Spec = DEFAULT_SPEC,
) -> List[LayerCost]:
    """Per-layer simulated (forward, backward) cost at ``batch`` per node.

    A zeros probe records each layer's input shape.  A conv layer's output
    shape comes from its :class:`~repro.core.params.ConvParams`, so the
    probe plans, certifies and runs no convolution; every other layer runs
    its forward pass on the probe.  Conv and dense layers are priced by
    :func:`repro.core.zoo.layer_cost` as the matching
    :class:`~repro.core.zoo.ZooLayer`, and the elementwise/bookkeeping
    layers (ReLU, pooling, flatten) are free at this resolution.  The
    gradient payload counts every parameter the layer allreduces, bias
    included.
    """
    if batch < 1:
        raise PlanError(f"batch must be positive, got {batch}")
    c, h, w = input_shape
    x = np.zeros((batch, c, h, w))
    costs: List[LayerCost] = []
    for index, layer in enumerate(network.layers):
        name = f"{index}:{type(layer).__name__}"
        grad_bytes = sum(p.nbytes for p in layer.parameters().values())
        if isinstance(layer, Conv2D):
            b, ni, ri, ci = x.shape
            no, ni_w, kr, kc = layer.w.shape
            if ni_w != ni:
                raise PlanError(
                    f"{name}: input has {ni} channels, its filters take {ni_w}"
                )
            params = ConvParams(ni=ni, no=no, ri=ri, ci=ci, kr=kr, kc=kc, b=b)
            x = np.zeros(params.output_shape)
            zoo = ZooLayer(name, "conv", conv=params)
        else:
            x = layer.forward(x)
            if not isinstance(layer, Dense):
                costs.append(LayerCost(name, 0.0, 0.0, grad_bytes))
                continue
            in_features, out_features = layer.w.shape
            gemm = GemmParams(m=out_features, n=batch, k=in_features)
            zoo = ZooLayer(name, "fc", fc=gemm)
        costs.append(replace(layer_cost(zoo, spec), gradient_bytes=grad_bytes))
    return costs


# ---------------------------------------------------------------------------
# gradient bucketing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradientBucket:
    """Consecutive (in backward order) parameter layers reduced together."""

    index: int
    #: Positions in the *full* layer list, in backward order.
    layer_indices: Tuple[int, ...]
    nbytes: int


def plan_buckets(costs: Sequence[LayerCost], bucket_bytes: int) -> List[GradientBucket]:
    """Pack parameter layers into allreduce buckets, backward order.

    swCaffe-style: walk the layers in the order their backward passes
    finish (last layer first), greedily accumulating gradient tensors
    until the next one would push the bucket past ``bucket_bytes``.  A
    single tensor larger than the threshold gets its own bucket.  The
    returned buckets are in readiness order — bucket 0's allreduce can
    start first.
    """
    if bucket_bytes < 1:
        raise PlanError(f"bucket_bytes must be positive, got {bucket_bytes}")
    buckets: List[GradientBucket] = []
    members: List[int] = []
    size = 0
    for li in reversed(range(len(costs))):
        cost = costs[li]
        if not cost.has_gradients:
            continue
        if members and size + cost.gradient_bytes > bucket_bytes:
            buckets.append(GradientBucket(len(buckets), tuple(members), size))
            members, size = [], 0
        members.append(li)
        size += cost.gradient_bytes
    if members:
        buckets.append(GradientBucket(len(buckets), tuple(members), size))
    return buckets


# ---------------------------------------------------------------------------
# the simulated step timeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BucketSpan:
    """One bucket allreduce on the simulated timeline (seconds)."""

    bucket: int
    nbytes: int
    ready: float
    start: float
    end: float


@dataclass(frozen=True)
class StepTimeline:
    """Simulated timing of one synchronous data-parallel step."""

    nodes: int
    forward_seconds: float
    backward_seconds: float
    compute_seconds: float  # slowest node's fwd+bwd
    comm_seconds: float  # sum of bucket allreduce durations
    exposed_comm_seconds: float  # communication not hidden by backward
    step_seconds: float  # the schedule actually used
    serialized_seconds: float  # the no-overlap schedule, for comparison
    bucket_spans: Tuple[BucketSpan, ...]

    @property
    def overlap_speedup(self) -> float:
        """Serialized over scheduled step time (1.0 when nothing to hide)."""
        if self.step_seconds <= 0:
            return 1.0
        return self.serialized_seconds / self.step_seconds

    @property
    def comm_compute_ratio(self) -> float:
        if self.compute_seconds <= 0:
            return 0.0
        return self.comm_seconds / self.compute_seconds


def simulate_step_timeline(
    costs: Sequence[LayerCost],
    nodes: int,
    interconnect: InterconnectModel,
    topology: str,
    buckets: Sequence[GradientBucket],
    overlap: bool = True,
    node_scales: Optional[Sequence[float]] = None,
    link_factor: float = 1.0,
    partition_penalty: float = 1.0,
) -> StepTimeline:
    """Schedule one step: per-node compute plus bucketed gradient allreduce.

    A bucket becomes *ready* when its last member layer's backward has
    finished on the slowest node; buckets then serialize on the node's
    injection link in readiness order.  With ``overlap`` the allreduce of
    an early bucket hides behind the backward compute of shallower layers;
    without it every bucket waits for the whole backward pass — the
    swCaffe ablation this module exists to reproduce.
    """
    if nodes < 1:
        raise PlanError(f"need at least one node, got {nodes}")
    scales = tuple(node_scales) if node_scales is not None else (1.0,) * nodes
    if len(scales) != nodes:
        raise PlanError(f"{len(scales)} node scales for {nodes} nodes")
    slowest = max(scales) if scales else 1.0
    fwd_total = sum(c.forward_seconds for c in costs)
    bwd_total = sum(c.backward_seconds for c in costs)
    compute = slowest * (fwd_total + bwd_total)
    # Unscaled completion time of each layer's backward pass.
    completion: Dict[int, float] = {}
    t = fwd_total
    for li in reversed(range(len(costs))):
        t += costs[li].backward_seconds
        completion[li] = t
    net = interconnect if link_factor >= 1.0 else interconnect.derated(link_factor)
    penalty = partition_penalty if partition_penalty > 1.0 else 1.0
    spans: List[BucketSpan] = []
    comm = 0.0
    cursor = 0.0 if overlap else compute
    for bucket in buckets:
        # Members are in backward order; the last appended finishes last.
        ready_unscaled = max(completion[li] for li in bucket.layer_indices)
        ready = slowest * ready_unscaled if overlap else compute
        duration = net.allreduce(bucket.nbytes, nodes, topology) * penalty
        start = max(ready, cursor)
        end = start + duration
        spans.append(BucketSpan(bucket.index, bucket.nbytes, ready, start, end))
        cursor = end
        comm += duration
    last_end = spans[-1].end if spans else compute
    step = max(compute, last_end)
    serialized = compute + comm
    exposed = max(0.0, step - compute)
    return StepTimeline(
        nodes=nodes,
        forward_seconds=slowest * fwd_total,
        backward_seconds=slowest * bwd_total,
        compute_seconds=compute,
        comm_seconds=comm,
        exposed_comm_seconds=exposed,
        step_seconds=step if overlap else serialized,
        serialized_seconds=serialized,
        bucket_spans=tuple(spans),
    )


# ---------------------------------------------------------------------------
# the executed cluster trainer
# ---------------------------------------------------------------------------


@dataclass
class ClusterStepReport:
    """Everything one executed synchronous step produced."""

    step: int
    loss: float
    accuracy: float
    timeline: StepTimeline
    fault_events: Tuple[str, ...] = ()

    @property
    def step_seconds(self) -> float:
        return self.timeline.step_seconds


@dataclass
class ClusterRunResult:
    """Loss trajectory plus per-step reports of a cluster training run."""

    reports: List[ClusterStepReport] = field(default_factory=list)

    @property
    def losses(self) -> List[float]:
        return [r.loss for r in self.reports]

    @property
    def final_loss(self) -> float:
        return self.reports[-1].loss

    @property
    def steps(self) -> int:
        return len(self.reports)


class ClusterTrainer:
    """Synchronous data-parallel SGD across N simulated SW26010 nodes.

    ``network_factory`` must build identical replicas (seed its RNGs!);
    the constructor verifies the replicas start in bitwise agreement.
    Every :meth:`step` shards the global batch contiguously across nodes,
    runs each node's shard in micro-batches of ``grain`` samples (default:
    the whole per-node shard), reduces the micro-gradients exactly, and
    applies the same update on every replica through the shared
    :class:`~repro.scale.exchange.ClusterExchange` — so replicas stay in
    bitwise lockstep, and the result is independent of the node count for
    a fixed ``grain`` (the parity property).

    ``jobs`` fans per-node shard execution over worker threads;
    ``jobs=None`` defers to the ``SWDNN_JOBS`` environment variable like
    every other fan-out surface (:func:`repro.common.parallel.default_jobs`).
    Threading never changes results — replicas share no mutable state and
    gradients are gathered by rank, not by completion order.
    """

    def __init__(
        self,
        network_factory: Callable[[], Sequential],
        nodes: int,
        input_shape: Sequence[int],
        lr: float = 0.05,
        momentum: float = 0.9,
        topology: str = "ring",
        bucket_bytes: int = 1 << 20,
        overlap: bool = True,
        grain: Optional[int] = None,
        interconnect: Optional[InterconnectModel] = None,
        spec: SW26010Spec = DEFAULT_SPEC,
        faults: Optional[ClusterFaultSpec] = None,
        jobs: Optional[int] = None,
        telemetry=None,
    ):
        if nodes < 1:
            raise PlanError(f"need at least one node, got {nodes}")
        if grain is not None and grain < 1:
            raise PlanError(f"grain must be positive, got {grain}")
        self.nodes = nodes
        self.input_shape = tuple(input_shape)
        self.topology = topology
        self.bucket_bytes = bucket_bytes
        self.overlap = overlap
        self.grain = grain
        self.interconnect = interconnect if interconnect is not None else InterconnectModel()
        self.spec = spec
        self.faults = faults
        self._jobs_request = jobs
        self.telemetry = telemetry if telemetry is not None else current_telemetry()
        self.replicas: List[Sequential] = [network_factory() for _ in range(nodes)]
        self._factory = network_factory
        self._verify_identical_replicas()
        self._exchange = ClusterExchange()
        self.optimizers = [
            SGD(replica, lr=lr, momentum=momentum, exchange=self._exchange)
            for replica in self.replicas
        ]
        self._step_index = 0
        self._sim_clock = 0.0
        self._costs_cache: Dict[int, List[LayerCost]] = {}
        self._buckets_cache: Dict[int, List[GradientBucket]] = {}
        # Validate the topology eagerly — a typo should fail at
        # construction, not on the first step.
        self.interconnect.allreduce(0, max(2, nodes), topology)

    # -- setup helpers ------------------------------------------------------

    def _verify_identical_replicas(self) -> None:
        reference = self.replicas[0]
        for rank, replica in enumerate(self.replicas[1:], start=1):
            if not weights_bitwise_equal(reference, replica):
                raise PlanError(
                    f"network_factory is not deterministic: replica {rank} "
                    f"disagrees with replica 0 at initialization (seed the "
                    f"factory's RNGs)"
                )

    def _layer_costs(self, per_node_batch: int) -> List[LayerCost]:
        costs = self._costs_cache.get(per_node_batch)
        if costs is None:
            costs = profile_network(
                self._factory(), self.input_shape, per_node_batch, self.spec
            )
            self._costs_cache[per_node_batch] = costs
        return costs

    def _buckets(self, per_node_batch: int) -> List[GradientBucket]:
        buckets = self._buckets_cache.get(per_node_batch)
        if buckets is None:
            buckets = plan_buckets(self._layer_costs(per_node_batch), self.bucket_bytes)
            self._buckets_cache[per_node_batch] = buckets
        return buckets

    @property
    def resolved_jobs(self) -> int:
        """Worker threads per step (``SWDNN_JOBS`` default, node-clamped)."""
        return resolve_jobs(self._jobs_request, self.nodes)

    def weights(self) -> Sequential:
        """Replica 0 — canonical weights (all replicas are in lockstep)."""
        return self.replicas[0]

    def replicas_in_lockstep(self) -> bool:
        """True when every replica's weights are bitwise identical."""
        return all(
            weights_bitwise_equal(self.replicas[0], replica)
            for replica in self.replicas[1:]
        )

    # -- one synchronous step ----------------------------------------------

    def step(self, x: np.ndarray, labels: np.ndarray) -> ClusterStepReport:
        """One synchronous data-parallel SGD step on a global batch."""
        if len(x) != len(labels):
            raise PlanError(f"{len(x)} samples but {len(labels)} labels")
        global_batch = len(x)
        if global_batch < self.nodes or global_batch % self.nodes != 0:
            raise PlanError(
                f"global batch {global_batch} must be a positive multiple of "
                f"the node count {self.nodes}"
            )
        per_node = global_batch // self.nodes
        grain = self.grain if self.grain is not None else per_node
        if per_node % grain != 0:
            raise PlanError(
                f"grain {grain} must divide the per-node batch {per_node}"
            )
        micros_per_node = per_node // grain
        tracer = self.telemetry.tracer

        with tracer.span(
            "cluster.step", cat="scale", nodes=self.nodes, batch=global_batch
        ):
            def run_node(rank: int):
                lo = rank * per_node
                outputs = []
                for m in range(micros_per_node):
                    start = lo + m * grain
                    xb = x[start : start + grain]
                    yb = labels[start : start + grain]
                    replica = self.replicas[rank]
                    head = SoftmaxCrossEntropy(grad_normalizer=global_batch)
                    logits = replica.forward(xb)
                    loss = head.forward(logits, yb)
                    replica.backward(head.backward())
                    grads = [
                        dict(layer.gradients())
                        for layer in replica.parameter_layers()
                    ]
                    correct = int((logits.argmax(axis=1) == yb).sum())
                    outputs.append((grads, loss, correct))
                return outputs

            jobs = self.resolved_jobs
            if jobs > 1:
                with ThreadPoolExecutor(max_workers=jobs) as pool:
                    per_rank = list(pool.map(run_node, range(self.nodes)))
            else:
                per_rank = [run_node(rank) for rank in range(self.nodes)]

            # Global micro order: rank-major, shard-contiguous — the same
            # decomposition for every node count with a fixed grain.
            micro_grads = [grads for outputs in per_rank for grads, _, _ in outputs]
            reduced = reduce_micro_gradients(micro_grads)
            self._exchange.stage(reduced)
            try:
                for optimizer in self.optimizers:
                    optimizer.step()
            finally:
                self._exchange.clear()

            loss = (
                math.fsum(
                    loss * grain for outputs in per_rank for _, loss, _ in outputs
                )
                / global_batch
            )
            correct = sum(c for outputs in per_rank for _, _, c in outputs)

            faults = _draw_step_faults(self.faults, self.nodes, self._step_index)
            timeline = simulate_step_timeline(
                self._layer_costs(per_node),
                self.nodes,
                self.interconnect,
                self.topology,
                self._buckets(per_node),
                overlap=self.overlap,
                node_scales=faults.node_scales,
                link_factor=faults.link_factor,
                partition_penalty=(
                    self.faults.partition_penalty
                    if (self.faults is not None and faults.partitioned)
                    else 1.0
                ),
            )
            self._record_telemetry(timeline, faults)

        report = ClusterStepReport(
            step=self._step_index,
            loss=loss,
            accuracy=correct / global_batch,
            timeline=timeline,
            fault_events=faults.events,
        )
        self._step_index += 1
        self._sim_clock += timeline.step_seconds
        return report

    # -- telemetry ----------------------------------------------------------

    def _record_telemetry(self, timeline: StepTimeline, faults: StepFaults) -> None:
        counters = self.telemetry.counters
        counters.add("comm.steps")
        counters.add("comm.seconds", timeline.comm_seconds)
        counters.add("comm.exposed_seconds", timeline.exposed_comm_seconds)
        if self.nodes > 1:
            counters.add("comm.allreduces", len(timeline.bucket_spans))
            for span in timeline.bucket_spans:
                counters.add("comm.bytes_reduced", span.nbytes)
                counters.add(
                    "comm.link_bytes",
                    self.interconnect.allreduce_link_bytes(
                        span.nbytes, self.nodes, self.topology
                    ),
                )
        stragglers = sum(1 for s in faults.node_scales if s > 1.0)
        if stragglers:
            counters.add("comm.faults.straggler", stragglers)
        if faults.link_factor < 1.0:
            counters.add("comm.faults.link_degraded")
        if faults.partitioned:
            counters.add("comm.faults.partition")
        flight = self.telemetry.flight
        flight.record(
            "cluster.step",
            step=self._step_index,
            nodes=self.nodes,
            step_seconds=timeline.step_seconds,
            exposed_comm_seconds=timeline.exposed_comm_seconds,
        )
        if flight.enabled:
            for span in timeline.bucket_spans:
                flight.record(
                    "cluster.allreduce",
                    step=self._step_index,
                    bucket=span.bucket,
                    nbytes=span.nbytes,
                    start=span.start,
                    end=span.end,
                )
            for event in faults.events:
                flight.record("cluster.fault", step=self._step_index, event=event)
        metrics = self.telemetry.metrics
        if metrics.enabled:
            # Simulated timebase: sample the per-step communication signals
            # at the step's *end* on the cluster clock, so the ring plots
            # exposed comm over simulated training time.
            t_sim = self._sim_clock + timeline.step_seconds
            metrics.sample(
                "comm.exposed_seconds", t_sim, timeline.exposed_comm_seconds
            )
            metrics.sample("comm.step_seconds", t_sim, timeline.step_seconds)
            metrics.observe("comm.step_seconds", timeline.step_seconds)
        tracer = self.telemetry.tracer
        if not tracer.enabled:
            return
        base = self._sim_clock
        for rank in range(min(self.nodes, 8)):  # bound the trace size
            scale = faults.node_scales[rank]
            fwd_end = base + scale * (timeline.forward_seconds / max(
                max(faults.node_scales), 1.0
            ))
            tracer.record_sim(
                "forward", base, fwd_end, track=f"node{rank}", cat="scale"
            )
            tracer.record_sim(
                "backward",
                fwd_end,
                base + scale * (timeline.compute_seconds / max(
                    max(faults.node_scales), 1.0
                )),
                track=f"node{rank}",
                cat="scale",
            )
        for span in timeline.bucket_spans:
            tracer.record_sim(
                f"allreduce.b{span.bucket}",
                base + span.start,
                base + span.end,
                track="interconnect",
                cat="comm",
                bytes=span.nbytes,
                topology=self.topology,
                nodes=self.nodes,
            )

    # -- epoch-style convenience -------------------------------------------

    def fit(
        self,
        x: np.ndarray,
        labels: np.ndarray,
        epochs: int = 1,
        global_batch: int = 32,
        rng: Optional[np.random.Generator] = None,
    ) -> ClusterRunResult:
        """Minibatch training over a dataset, ``train_classifier``-style.

        Batches that would not fill every node (the trailing remainder)
        are dropped — synchronous data parallelism needs a full shard per
        node.
        """
        if len(x) != len(labels):
            raise PlanError(f"{len(x)} samples but {len(labels)} labels")
        if global_batch % self.nodes != 0:
            raise PlanError(
                f"global batch {global_batch} must be a multiple of the "
                f"node count {self.nodes}"
            )
        rng = rng or np.random.default_rng(0)
        result = ClusterRunResult()
        n = len(x)
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n - global_batch + 1, global_batch):
                idx = order[start : start + global_batch]
                result.reports.append(self.step(x[idx], labels[idx]))
        return result


def weights_bitwise_equal(a: Sequential, b: Sequential) -> bool:
    """True when two networks' parameters are bitwise identical."""
    layers_a = a.parameter_layers()
    layers_b = b.parameter_layers()
    if len(layers_a) != len(layers_b):
        return False
    for la, lb in zip(layers_a, layers_b):
        pa, pb = la.parameters(), lb.parameters()
        if pa.keys() != pb.keys():
            return False
        for name in pa:
            if pa[name].shape != pb[name].shape:
                return False
            if not np.array_equal(
                pa[name].view(np.uint64), pb[name].view(np.uint64)
            ):
                return False
    return True
