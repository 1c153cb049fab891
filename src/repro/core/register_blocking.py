"""Register blocking plans (Section V-B).

Two families exist:

* the *direct-convolution* register plan blocks the spatial (Ci, Ri)
  dimensions and keeps an ``rbKr x rbKc`` filter patch in registers — its
  required LDM->REG bandwidth (Eq. 3) is pinned by the network's filter
  size, which is why the paper rejects it;
* the *blocked-GEMM* plan blocks the (B, No) dimensions — its bandwidth
  (Eq. 4, and Eq. 5 under the SIMD splat layout) is free of network
  parameters, and the register file bounds the feasible sizes.

Feasibility against the 32-register file: an ``(rbB, rbNo)`` plan needs
``rbB/4`` input vectors, ``rbNo`` splatted filter vectors and
``(rbB/4) * rbNo`` accumulators, plus a handful of address/loop registers.
The paper's choice (16, 4) uses 4 + 4 + 16 = 24 data registers and pushes
Eq. 5 to 23.2 GB/s, half the 46.4 GB/s LDM->REG bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.common.errors import RegisterPressureError
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.perf.equations import (
    rbw_ldm_reg_direct_conv,
    rbw_ldm_reg_gemm,
    rbw_ldm_reg_gemm_simd,
)

#: Registers reserved for addresses, loop counters and temporaries.
RESERVED_REGISTERS = 6


@dataclass(frozen=True)
class RegisterBlocking:
    """A (rbB, rbNo) blocked-GEMM register plan."""

    rb_b: int
    rb_no: int

    def __post_init__(self) -> None:
        if self.rb_b < 1 or self.rb_no < 1:
            raise ValueError("register block dimensions must be positive")
        if self.rb_b % 4 != 0:
            raise ValueError(
                f"rbB must be a multiple of the 4-lane vector width, got {self.rb_b}"
            )

    @property
    def input_vectors(self) -> int:
        """Vector registers holding input pixels (4 batch elements each)."""
        return self.rb_b // 4

    @property
    def filter_vectors(self) -> int:
        """Vector registers holding splatted filter elements."""
        return self.rb_no

    @property
    def accumulators(self) -> int:
        return self.input_vectors * self.rb_no

    @property
    def registers_needed(self) -> int:
        return (
            self.input_vectors
            + self.filter_vectors
            + self.accumulators
            + RESERVED_REGISTERS
        )

    def check_feasible(self, spec: SW26010Spec = DEFAULT_SPEC) -> None:
        """Raise :class:`RegisterPressureError` if the plan overflows."""
        if self.registers_needed > spec.vector_registers:
            raise RegisterPressureError(
                f"register blocking ({self.rb_b}, {self.rb_no}) needs "
                f"{self.registers_needed} registers, CPE has "
                f"{spec.vector_registers}"
            )

    def is_feasible(self, spec: SW26010Spec = DEFAULT_SPEC) -> bool:
        return self.registers_needed <= spec.vector_registers

    def rbw(self, spec: SW26010Spec = DEFAULT_SPEC) -> float:
        """Eq. 4 bandwidth (bytes/s) without the SIMD splat penalty."""
        return rbw_ldm_reg_gemm(
            self.rb_b, self.rb_no, peak_flops=spec.peak_flops_per_cpe
        )

    def rbw_simd(self, spec: SW26010Spec = DEFAULT_SPEC) -> float:
        """Eq. 5 bandwidth (bytes/s) under the vldde splat layout."""
        return rbw_ldm_reg_gemm_simd(
            self.rb_b, self.rb_no, peak_flops=spec.peak_flops_per_cpe
        )

    def fma_per_inner_step(self) -> int:
        """Vector FMAs per (A-set, B-set) load: (rbB/4) * rbNo (16 for 16x4)."""
        return self.input_vectors * self.rb_no


#: The paper's configuration (Section V-C): rbB=16, rbNo=4 -> 23.2 GB/s.
PAPER_REGISTER_BLOCKING = RegisterBlocking(rb_b=16, rb_no=4)


@dataclass(frozen=True)
class DirectConvRegisterBlocking:
    """The rejected spatial register plan (Eq. 3), kept for the ablation."""

    rb_ri: int
    rb_ci: int
    rb_kr: int
    rb_kc: int

    def __post_init__(self) -> None:
        if min(self.rb_ri, self.rb_ci, self.rb_kr, self.rb_kc) < 1:
            raise ValueError("register block dimensions must be positive")
        if self.rb_ci < self.rb_kc or self.rb_ri < self.rb_kr:
            raise ValueError(
                f"spatial block {self.rb_ri}x{self.rb_ci} smaller than the "
                f"filter patch {self.rb_kr}x{self.rb_kc}"
            )

    @property
    def rb_ro(self) -> int:
        return self.rb_ri - self.rb_kr + 1

    @property
    def rb_co(self) -> int:
        return self.rb_ci - self.rb_kc + 1

    @property
    def registers_needed(self) -> int:
        inputs = -(-self.rb_ri * self.rb_ci // 4)
        outputs = -(-self.rb_ro * self.rb_co // 4)
        filters = -(-self.rb_kr * self.rb_kc // 4)
        return inputs + outputs + filters + RESERVED_REGISTERS

    def is_feasible(self, spec: SW26010Spec = DEFAULT_SPEC) -> bool:
        return self.registers_needed <= spec.vector_registers

    def rbw(self, spec: SW26010Spec = DEFAULT_SPEC) -> float:
        """Eq. 3 bandwidth (bytes/s)."""
        return rbw_ldm_reg_direct_conv(
            self.rb_ri,
            self.rb_ci,
            self.rb_kr,
            self.rb_kc,
            peak_flops=spec.peak_flops_per_cpe,
        )


def enumerate_gemm_blockings(
    spec: SW26010Spec = DEFAULT_SPEC,
    max_rb_b: int = 64,
    max_rb_no: int = 16,
) -> Iterator[RegisterBlocking]:
    """All register-feasible (rbB, rbNo) plans within the search bounds."""
    for rb_b in range(4, max_rb_b + 1, 4):
        for rb_no in range(1, max_rb_no + 1):
            plan = RegisterBlocking(rb_b=rb_b, rb_no=rb_no)
            if plan.is_feasible(spec):
                yield plan


def choose_register_blocking(
    spec: SW26010Spec = DEFAULT_SPEC,
    simd: bool = True,
) -> RegisterBlocking:
    """Pick the feasible (rbB, rbNo) minimizing the Eq. 5 (or Eq. 4) RBW.

    Ties break toward more accumulators (more work per loop overhead).
    With the default spec this returns the paper's (16, 4).
    """
    candidates: List[RegisterBlocking] = list(enumerate_gemm_blockings(spec))
    if not candidates:
        raise RegisterPressureError("no feasible register blocking exists")

    def key(plan: RegisterBlocking):
        rbw = plan.rbw_simd(spec) if simd else plan.rbw(spec)
        return (rbw, -plan.accumulators)

    return min(candidates, key=key)
