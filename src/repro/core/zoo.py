"""Model zoo: the one catalog of modeled layers and their training cost.

The paper motivates swDNN with ImageNet-class networks (its references
include VGG [2] and AlexNet-lineage models [10]); this module describes
their stacks as :class:`ZooLayer` sequences, and :func:`layer_cost` prices
one training step of a layer (forward + backward-data + backward-filter
per conv layer, three GEMMs per FC layer) on one simulated SW26010 — the
"what would training this network actually cost" number the paper's
per-kernel evaluation stops short of.  It is the only per-layer
training-cost path: :func:`time_network`, the executed cluster's
:func:`repro.scale.cluster.profile_network` and the modeled scaling curves
of :mod:`repro.scale.report` all price layers through it.

Only stride-1 convolutions are representable (the paper's kernels);
AlexNet's strided first layer is therefore approximated by its stride-1
retrained variant's geometry, noted per network.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional

from repro.common.errors import PlanError
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.core.backward import BackwardConvolution
from repro.core.gemm_plan import GemmEngine, GemmParams, GemmPlan
from repro.core.params import ConvParams
from repro.perf.equations import DS


@dataclass(frozen=True)
class ZooLayer:
    """One layer of a zoo network."""

    name: str
    kind: str  # "conv" | "fc"
    conv: Optional[ConvParams] = None
    fc: Optional[GemmParams] = None

    def __post_init__(self) -> None:
        if self.kind not in ("conv", "fc"):
            raise PlanError(f"layer {self.name}: unknown layer kind {self.kind!r}")
        if self.kind == "conv" and self.conv is None:
            raise PlanError(f"layer {self.name}: conv layer needs ConvParams")
        if self.kind == "fc" and self.fc is None:
            raise PlanError(f"layer {self.name}: fc layer needs GemmParams")

    def flops(self) -> int:
        return self.conv.flops() if self.kind == "conv" else self.fc.flops()

    def gradient_bytes(self) -> int:
        """Bytes of weight gradient this layer allreduces (weights only)."""
        if self.kind == "conv":
            return self.conv.filter_bytes()
        return self.fc.m * self.fc.k * DS


@dataclass(frozen=True)
class LayerCost:
    """One layer's simulated whole-chip training cost and gradient payload."""

    name: str
    forward_seconds: float
    backward_seconds: float
    gradient_bytes: int

    @property
    def total_seconds(self) -> float:
        return self.forward_seconds + self.backward_seconds

    @property
    def has_gradients(self) -> bool:
        return self.gradient_bytes > 0


@lru_cache(maxsize=512)
def layer_cost(layer: ZooLayer, spec: SW26010Spec = DEFAULT_SPEC) -> LayerCost:
    """Training-step cost of one layer on a whole SW26010.

    Conv layers are timed through :class:`BackwardConvolution`, FC layers
    as three mesh GEMMs of one shape.  Per-CG seconds divide by the
    core-group count, the linear Section III-D scaling.
    """
    if layer.kind == "conv":
        try:
            total, breakdown = BackwardConvolution(
                layer.conv, spec=spec
            ).training_step_time()
            fwd = breakdown["forward"].seconds
            bwd = total - fwd
        except PlanError:
            # Shapes the planner refuses (tiny probe layers): fall back to a
            # roofline guess at a conservative 20% of per-CG peak.
            fwd = layer.conv.flops() / (0.2 * spec.peak_flops_per_cg)
            bwd = 2.0 * fwd
    else:
        fwd = GemmEngine(GemmPlan(layer.fc, spec=spec)).evaluate().seconds
        bwd = 2.0 * fwd  # backward-data + backward-weight GEMMs
    cg = spec.num_core_groups
    return LayerCost(layer.name, fwd / cg, bwd / cg, layer.gradient_bytes())


def _conv(name: str, ni: int, no: int, out: int, b: int) -> ZooLayer:
    return ZooLayer(
        name=name,
        kind="conv",
        conv=ConvParams.from_output(ni=ni, no=no, ro=out, co=out, kr=3, kc=3, b=b),
    )


def vgg16(batch: int = 32) -> List[ZooLayer]:
    """VGG-16's thirteen 3x3 convolutions + three FC layers."""
    layers = [
        _conv("conv1_1", 3, 64, 224, batch),
        _conv("conv1_2", 64, 64, 224, batch),
        _conv("conv2_1", 64, 128, 112, batch),
        _conv("conv2_2", 128, 128, 112, batch),
        _conv("conv3_1", 128, 256, 56, batch),
        _conv("conv3_2", 256, 256, 56, batch),
        _conv("conv3_3", 256, 256, 56, batch),
        _conv("conv4_1", 256, 512, 28, batch),
        _conv("conv4_2", 512, 512, 28, batch),
        _conv("conv4_3", 512, 512, 28, batch),
        _conv("conv5_1", 512, 512, 14, batch),
        _conv("conv5_2", 512, 512, 14, batch),
        _conv("conv5_3", 512, 512, 14, batch),
        ZooLayer("fc6", "fc", fc=GemmParams(m=4096, n=batch, k=512 * 7 * 7)),
        ZooLayer("fc7", "fc", fc=GemmParams(m=4096, n=batch, k=4096)),
        ZooLayer("fc8", "fc", fc=GemmParams(m=1000, n=batch, k=4096)),
    ]
    return layers


def cifar_quick(batch: int = 128) -> List[ZooLayer]:
    """A CIFAR-scale quick net (3 convs + 2 FCs)."""
    return [
        _conv("conv1", 3, 32, 32, batch),
        _conv("conv2", 32, 32, 16, batch),
        _conv("conv3", 32, 64, 8, batch),
        ZooLayer("fc1", "fc", fc=GemmParams(m=64, n=batch, k=64 * 4 * 4)),
        ZooLayer("fc2", "fc", fc=GemmParams(m=10, n=batch, k=64)),
    ]


def vgg_like_stack(batch: int = 128) -> List[ZooLayer]:
    """The small VGG-ish stack of the data-parallel scaling curves.

    ``batch`` is the per-node batch.
    """
    if batch < 1:
        raise PlanError(f"per-node batch must be positive, got {batch}")
    return [
        _conv("conv1", 64, 64, 32, batch),
        _conv("conv2", 64, 128, 16, batch),
        _conv("conv3", 128, 256, 8, batch),
        ZooLayer("fc1", "fc", fc=GemmParams(m=1024, n=batch, k=256 * 8 * 8)),
        ZooLayer("fc2", "fc", fc=GemmParams(m=1000, n=batch, k=1024)),
    ]


NETWORKS: Dict[str, callable] = {"vgg16": vgg16, "cifar_quick": cifar_quick}


@dataclass
class NetworkTiming:
    """Whole-network training-step timing on one chip.

    ``costs[i]`` is :func:`layer_cost` of ``layers[i]``.
    """

    network: str
    layers: List[ZooLayer]
    costs: List[LayerCost]

    @property
    def batch(self) -> int:
        first = self.layers[0]
        return first.conv.b if first.kind == "conv" else first.fc.n

    @property
    def step_seconds(self) -> float:
        return sum(c.total_seconds for c in self.costs)

    @property
    def total_flops(self) -> int:
        return 3 * sum(l.flops() for l in self.layers)  # fwd + 2 bwd passes

    @property
    def sustained_gflops(self) -> float:
        if self.step_seconds <= 0:
            return 0.0
        return self.total_flops / self.step_seconds / 1e9

    @property
    def images_per_second(self) -> float:
        if self.step_seconds <= 0:
            return 0.0
        return self.batch / self.step_seconds


def time_network(
    name: str, batch: Optional[int] = None, spec: SW26010Spec = DEFAULT_SPEC
) -> NetworkTiming:
    """Time one training step of a zoo network on the whole chip."""
    try:
        builder = NETWORKS[name]
    except KeyError:
        raise PlanError(
            f"unknown network {name!r}; available: {sorted(NETWORKS)}"
        ) from None
    layers = builder(batch) if batch is not None else builder()
    return NetworkTiming(name, layers, [layer_cost(layer, spec) for layer in layers])
