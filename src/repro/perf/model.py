"""The composed three-level performance model (Fig. 2).

For a candidate convolution plan the model multiplies, onto the per-CG peak:

1. **EE** — execution efficiency of the dual-pipeline inner kernel
   (Section VI-B; the reordered GEMM kernel's cycles for the plan's
   ``Ni/8`` iterations, derived from one steady-state simulation per
   register shape);
2. **LDM->REG factor** — ``min(1, MBW_ldm / RBW_ldm_reg)**2`` with
   ``RBW_ldm_reg`` from Eq. 5 and ``MBW_ldm`` = 46.4 GB/s;
3. **MEM->LDM factor** — ``min(1, MBW_mem / RBW_mem_ldm)**2`` with
   ``RBW_mem_ldm`` from Eq. 1 or Eq. 2 and ``MBW_mem`` read off the Table II
   curve at the plan's DMA block size.

The *direct memory access* design point (middle column of Fig. 2) replaces
factors 2-3 with ``min(1, 8 GB/s / 139.2 GB/s)**2`` — 0.33% of peak, the
number that rules the gload path out before any code is written.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from typing import Sequence

from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.perf.dma_model import DMAStream, blended_mbw
from repro.perf.equations import (
    RBW_DIRECT_MEM,
    rbw_ldm_reg_gemm_simd,
    rbw_mem_ldm_batch_plan,
    rbw_mem_ldm_image_plan,
)
from repro.perf.roofline import bandwidth_bound_fraction


def _measured_ee(iterations: int, num_a: int = 4, num_b: int = 4) -> float:
    """Simulated execution efficiency of the reordered kernel (cached on
    all three arguments, so ``k`` and ``k, 4, 4`` share one entry)."""
    return _kernel_ee(iterations, num_a, num_b)


@lru_cache(maxsize=256)
def _kernel_ee(iterations: int, num_a: int, num_b: int) -> float:
    from repro.isa.kernels import GemmKernelSpec, kernel_execution_efficiency

    return kernel_execution_efficiency(
        GemmKernelSpec(iterations=iterations, num_a=num_a, num_b=num_b)
    )


@dataclass(frozen=True)
class PerformanceEstimate:
    """Output of the model for one plan on one core group."""

    plan: str
    peak_flops: float
    execution_efficiency: float
    rbw_mem: float
    mbw_mem: float
    rbw_reg: float
    mbw_reg: float

    @property
    def mem_fraction(self) -> float:
        """``min(1, MBW/RBW)**2`` at the MEM->LDM level."""
        return bandwidth_bound_fraction(self.rbw_mem, self.mbw_mem) ** 2

    @property
    def reg_fraction(self) -> float:
        """``min(1, MBW/RBW)**2`` at the LDM->REG level."""
        return bandwidth_bound_fraction(self.rbw_reg, self.mbw_reg) ** 2

    @property
    def flops(self) -> float:
        """Modeled sustained flop/s."""
        return (
            self.peak_flops
            * self.execution_efficiency
            * self.mem_fraction
            * self.reg_fraction
        )

    @property
    def gflops(self) -> float:
        return self.flops / 1e9

    @property
    def efficiency(self) -> float:
        """Fraction of peak."""
        return self.flops / self.peak_flops

    @property
    def bound(self) -> str:
        """Which resource limits this plan."""
        if self.mem_fraction < 1.0 and self.mem_fraction <= self.reg_fraction:
            return "MEM"
        if self.reg_fraction < 1.0:
            return "REG"
        return "compute"


class PerformanceModel:
    """The REG-LDM-MEM model for one core group of the SW26010."""

    def __init__(self, spec: SW26010Spec = DEFAULT_SPEC):
        self.spec = spec

    # -- Fig. 2, middle column ---------------------------------------------

    def direct_memory(self, execution_efficiency: float = 1.0) -> PerformanceEstimate:
        """The gload design point: every operand fetched from main memory."""
        return PerformanceEstimate(
            plan="direct-gload",
            peak_flops=self.spec.peak_flops_per_cg,
            execution_efficiency=execution_efficiency,
            rbw_mem=RBW_DIRECT_MEM,
            mbw_mem=self.spec.gload_bandwidth,
            rbw_reg=1.0,  # not the bound on this path
            mbw_reg=self.spec.ldm_bandwidth,
        )

    # -- Fig. 2, right column -----------------------------------------------

    def image_plan(
        self,
        b_co: int,
        b_b: int,
        n_o: int,
        n_i: int,
        streams: Optional[Sequence[DMAStream]] = None,
        block_bytes: Optional[int] = None,
        rb_b: int = 16,
        rb_no: int = 4,
    ) -> PerformanceEstimate:
        """Estimate the image-size-aware plan (Algorithm 1 / Eq. 1).

        ``streams`` describes the plan's actual DMA traffic mix for the MBW
        blend; without it, a single-stream approximation at the plan's
        leading-dimension block size is used (the (4,C,R,N,B/4) layout makes
        ``bCo`` 4-lane vectors contiguous: ``bCo * 32`` bytes).
        """
        block = (
            block_bytes
            if block_bytes is not None
            else b_co * self.spec.vector_lanes * self.spec.double_bytes
        )
        return PerformanceEstimate(
            plan="image-size-aware",
            peak_flops=self.spec.peak_flops_per_cg,
            execution_efficiency=self._ee(n_i),
            rbw_mem=rbw_mem_ldm_image_plan(
                b_co, b_b, n_o, peak_flops=self.spec.peak_flops_per_cg
            ),
            mbw_mem=self._mbw(streams, block),
            rbw_reg=rbw_ldm_reg_gemm_simd(
                rb_b, rb_no, peak_flops=self.spec.peak_flops_per_cpe
            ),
            mbw_reg=self.spec.ldm_bandwidth,
        )

    def batch_plan(
        self,
        k_c: int,
        n_o: int,
        b: int,
        n_i: int,
        streams: Optional[Sequence[DMAStream]] = None,
        block_bytes: Optional[int] = None,
        rb_b: int = 16,
        rb_no: int = 4,
    ) -> PerformanceEstimate:
        """Estimate the batch-size-aware plan (Algorithm 2 / Eq. 2).

        The (4,B/4,C,R,N) layout makes the whole batch contiguous, so the
        default single-stream block is ``B`` doubles.
        """
        block = block_bytes if block_bytes is not None else b * self.spec.double_bytes
        return PerformanceEstimate(
            plan="batch-size-aware",
            peak_flops=self.spec.peak_flops_per_cg,
            execution_efficiency=self._ee(n_i),
            rbw_mem=rbw_mem_ldm_batch_plan(
                k_c, n_o, b, peak_flops=self.spec.peak_flops_per_cg
            ),
            mbw_mem=self._mbw(streams, block),
            rbw_reg=rbw_ldm_reg_gemm_simd(
                rb_b, rb_no, peak_flops=self.spec.peak_flops_per_cpe
            ),
            mbw_reg=self.spec.ldm_bandwidth,
        )

    def _mbw(self, streams: Optional[Sequence[DMAStream]], block: int) -> float:
        if streams:
            return blended_mbw(streams)
        return blended_mbw(
            [
                DMAStream("get", 1.0, block, "get"),
                DMAStream("put", 0.25, block, "put"),
            ]
        )

    # -- helpers -------------------------------------------------------------

    def _ee(self, n_i: int) -> float:
        """Execution efficiency for an Ni-deep reduction (Ni/8 iterations).

        ``Ni`` values that are not multiples of 8 round up to the next whole
        iteration (the kernel pads the reduction).
        """
        if n_i < 1:
            raise ValueError(f"Ni must be positive, got {n_i}")
        iterations = max(1, -(-n_i // 8))
        return _measured_ee(iterations)

    def chip_estimate(self, per_cg: PerformanceEstimate, num_groups: Optional[int] = None) -> float:
        """Chip-level flop/s assuming the Section III-D linear CG scaling."""
        n = num_groups if num_groups is not None else self.spec.num_core_groups
        if not 1 <= n <= self.spec.num_core_groups:
            raise ValueError(
                f"num_groups must be in [1, {self.spec.num_core_groups}], got {n}"
            )
        return per_cg.flops * n
