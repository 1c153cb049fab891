"""Performance model of cuDNNv5.1 on a Tesla K40m — the GPU comparator.

The paper's Figs. 7 and 9 compare swDNN against double-precision cuDNNv5.1
on a K40m and report (a) speedups from 1.91x to 9.75x over 100+ parameter
configurations, (b) a best cuDNN efficiency of ~40% of peak reached "only
for a small set of parameter configurations", and (c) instability —
cuDNN's performance varies strongly with the configuration while swDNN's
is flat.

We cannot run the real GPU, so this module models the published behaviour
(the substitution is documented in DESIGN.md):

* K40m double-precision peak 1.43 Tflops, effective memory bandwidth
  ~240 GB/s (the paper's Section VIII figure);
* a roofline bound from the im2col traffic cuDNN's implicit-GEMM moves;
* an efficiency surface peaking at 40% for GEMM-friendly configurations
  (channel counts divisible by large powers of two, 3x3-5x5 filters) and
  degrading on odd channel counts, very small channel counts and large
  filter sizes — the known behaviour of cuDNN v5's algorithm choices;
* a deterministic per-configuration wobble (seeded by the configuration)
  reproducing the jagged per-config variation of Fig. 7.

All constants are calibrated so the swDNN/K40m speedup band over the
Fig. 8 configuration scripts spans roughly the paper's 1.91-9.75x.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import derive_rng
from repro.core.params import ConvParams


@dataclass(frozen=True)
class K40mSpec:
    """Published K40m figures used by the model."""

    peak_flops: float = 1.43e12
    memory_bandwidth: float = 240e9
    best_efficiency: float = 0.40


def _alignment_factor(channels: int) -> float:
    """cuDNN tiling efficiency vs channel alignment.

    Implicit-GEMM tiles want channel counts divisible by the warp-level
    tile (multiples of 32/64/128 run clean; odd sizes pad and waste).
    """
    if channels % 128 == 0:
        return 1.0
    if channels % 64 == 0:
        return 0.92
    if channels % 32 == 0:
        return 0.85
    if channels % 16 == 0:
        return 0.72
    if channels % 8 == 0:
        return 0.62
    return 0.55


def _filter_factor(kr: int, kc: int) -> float:
    """cuDNN v5 degradation for filter sizes beyond the tuned 3x3/5x5."""
    k = max(kr, kc)
    if k <= 5:
        return 1.0
    # Linear decay to ~0.35 at 21x21 (v5 had no large-filter kernels).
    return max(0.35, 1.0 - 0.04 * (k - 5))


def _depth_factor(ni: int) -> float:
    """Small reduction depths underutilize the GEMM pipeline."""
    if ni >= 128:
        return 1.0
    return max(0.75, ni / 128.0)


class K40mCuDNNModel:
    """Per-configuration cuDNNv5.1/K40m throughput estimates."""

    def __init__(self, spec: K40mSpec = K40mSpec(), seed: int = 2017):
        self.spec = spec
        self.seed = seed

    def efficiency(self, params: ConvParams) -> float:
        """Modeled fraction of K40m peak for one configuration."""
        eff = (
            self.spec.best_efficiency
            * _alignment_factor(params.ni)
            * _alignment_factor(params.no)
            * _filter_factor(params.kr, params.kc)
            * _depth_factor(params.ni)
        )
        # Deterministic per-configuration jitter (the jagged Fig. 7 line).
        rng = derive_rng(
            self.seed, params.ni, params.no, params.kr, params.kc, params.b
        )
        eff *= float(rng.uniform(0.85, 1.0))
        return min(self.spec.best_efficiency, eff)

    def flops_rate(self, params: ConvParams) -> float:
        """Sustained flop/s: min of the efficiency surface and the roofline."""
        compute = self.spec.peak_flops * self.efficiency(params)
        # Memory roofline over the implicit-GEMM traffic (input replicated
        # by the filter footprint, streamed from HBM-less GDDR5).
        lowered_bytes = (
            params.b * params.ni * params.kr * params.kc * params.ro * params.co * 8
            + params.filter_bytes()
            + params.output_bytes()
        )
        memory = self.spec.memory_bandwidth * params.flops() / lowered_bytes
        return min(compute, memory)

    def gflops(self, params: ConvParams) -> float:
        return self.flops_rate(params) / 1e9

    def seconds(self, params: ConvParams) -> float:
        return params.flops() / self.flops_rate(params)
