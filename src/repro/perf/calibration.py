"""Calibration of the two free constants against Table III.

The reproduction has exactly two fitted scalars (see EXPERIMENTS.md):

* ``DMA_STRIDE_EFFICIENCY`` — conv-traffic derating of the Table II curve,
  identified from the paper's measured-MBW column;
* ``OVERLAP_CONTENTION`` — the fraction of DMA/compute overlap lost to
  LDM-port contention, identified from the measured-Gflops column.

Rather than leaving them as magic numbers, this module re-derives them: a
grid search over (stride, contention) minimizing the relative error against
the paper's eight published measurements (4 x MBW + 4 x meas).  The test
suite asserts the fit lands on the shipped defaults, which makes the
calibration reproducible and the constants auditable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.common.units import GB
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.perf.dma_model import blended_mbw
from repro.core.conv import ConvolutionEngine
from repro.core.ldm_blocking import ImageBlocking
from repro.core.params import ConvParams
from repro.core.plans import BatchSizeAwarePlan, ImageSizeAwarePlan


@dataclass(frozen=True)
class CalibrationTarget:
    """One Table III row: configuration + the paper's measurements."""

    plan_kind: str
    ni: int
    no: int
    b_b: int = 0
    b_co: int = 0
    paper_mbw_gbps: float = 0.0
    paper_meas_gflops: float = 0.0


#: The four Table III rows as calibration targets.
TABLE_III_TARGETS: Tuple[CalibrationTarget, ...] = (
    CalibrationTarget("img", 128, 128, 32, 16, 21.9, 350.0),
    CalibrationTarget("img", 128, 256, 32, 8, 18.2, 375.0),
    CalibrationTarget("batch", 256, 256, 0, 0, 21.2, 410.0),
    CalibrationTarget("batch", 128, 384, 0, 0, 21.2, 392.0),
)


def _build_plan(target: CalibrationTarget, spec: SW26010Spec):
    params = ConvParams.from_output(
        ni=target.ni, no=target.no, ro=64, co=64, kr=3, kc=3, b=128
    )
    if target.plan_kind == "img":
        return ImageSizeAwarePlan(
            params, blocking=ImageBlocking(b_b=target.b_b, b_co=target.b_co), spec=spec
        )
    return BatchSizeAwarePlan(params, spec=spec)


@dataclass
class CalibrationResult:
    stride_efficiency: float
    contention: float
    mbw_error: float
    meas_error: float

    @property
    def total_error(self) -> float:
        return self.mbw_error + self.meas_error


def mbw_error(
    stride_efficiency: float,
    targets: Sequence[CalibrationTarget] = TABLE_III_TARGETS,
    spec: SW26010Spec = DEFAULT_SPEC,
) -> float:
    """Mean relative MBW error for one stride-efficiency value."""
    errors = []
    for target in targets:
        plan = _build_plan(target, spec)
        mbw = blended_mbw(plan.dma_streams(), stride_efficiency=stride_efficiency)
        errors.append(abs(mbw / GB - target.paper_mbw_gbps) / target.paper_mbw_gbps)
    return sum(errors) / len(errors)


def meas_error(
    stride_efficiency: float,
    contention: float,
    targets: Sequence[CalibrationTarget] = TABLE_III_TARGETS,
    spec: SW26010Spec = DEFAULT_SPEC,
) -> float:
    """Mean relative measured-Gflops error for one (stride, contention)."""
    errors = []
    for target in targets:
        plan = _build_plan(target, spec)
        report = ConvolutionEngine(
            plan,
            spec=spec,
            stride_efficiency=stride_efficiency,
            overlap_contention=contention,
        ).evaluate()
        errors.append(
            abs(report.gflops - target.paper_meas_gflops) / target.paper_meas_gflops
        )
    return sum(errors) / len(errors)


def calibrate(
    stride_grid: Sequence[float] = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    contention_grid: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    spec: SW26010Spec = DEFAULT_SPEC,
) -> CalibrationResult:
    """Grid-search both constants against the Table III targets.

    The stride efficiency is identified from the MBW column first (it is
    the only knob there), then the contention from the measured column.
    """
    best_stride = min(stride_grid, key=lambda s: mbw_error(s, spec=spec))
    best_contention = min(
        contention_grid, key=lambda c: meas_error(best_stride, c, spec=spec)
    )
    return CalibrationResult(
        stride_efficiency=best_stride,
        contention=best_contention,
        mbw_error=mbw_error(best_stride, spec=spec),
        meas_error=meas_error(best_stride, best_contention, spec=spec),
    )
