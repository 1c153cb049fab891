"""Model-vs-measured drift reports.

The three-level performance model (:mod:`repro.perf.model`) predicts each
layer's sustained Gflop/s and its MEM->LDM bandwidth from closed-form
equations; the engine *measures* both by walking the plan's schedule on the
simulated hardware.  When the two diverge, either the model is missing a
behaviour (the paper's Section VI calibration argument) or the engine is
not executing the plan it was sold — both worth an alarm before they show
up as a production regression.

:func:`drift_report` joins the two per layer and flags rows whose relative
flop-rate or effective-bandwidth deviation exceeds a threshold.  Measured
effective bandwidth is bytes moved over *busy DMA time*, which already
includes the calibrated stride derate; the model's MBW is the Table II
curve at the plan's block size — the drift column is exactly the gap the
calibration constants absorb, so a drifting layer is one the calibration
does not explain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from repro.common.tables import TextTable
from repro.common.units import GB
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC

#: Default relative deviation beyond which a layer is flagged.
DEFAULT_DRIFT_THRESHOLD = 0.25


@dataclass(frozen=True)
class DriftRow:
    """Model-vs-measured join for one layer."""

    params: Any  # ConvParams
    plan: str
    model_gflops: float
    measured_gflops: float
    model_mbw: float  # bytes/s, the model's MEM->LDM bandwidth
    measured_bw: float  # bytes/s, achieved over busy DMA time

    @property
    def flops_drift(self) -> float:
        """Relative deviation of measured from modeled flop rate."""
        if self.model_gflops <= 0:
            return 0.0
        return (self.measured_gflops - self.model_gflops) / self.model_gflops

    @property
    def bandwidth_drift(self) -> float:
        """Relative deviation of achieved from modeled DMA bandwidth."""
        if self.model_mbw <= 0:
            return 0.0
        return (self.measured_bw - self.model_mbw) / self.model_mbw

    def flagged(self, threshold: float) -> bool:
        return (
            abs(self.flops_drift) > threshold
            or abs(self.bandwidth_drift) > threshold
        )


@dataclass
class DriftReport:
    """Per-layer drift rows plus the threshold they were judged against."""

    rows: List[DriftRow]
    threshold: float

    @property
    def flagged(self) -> List[DriftRow]:
        return [row for row in self.rows if row.flagged(self.threshold)]

    def render(self) -> str:
        """Aligned drift table, one row per layer, flagged rows marked."""
        table = TextTable(
            [
                "Ni", "No", "out", "k", "B", "plan",
                "mdl G", "meas G", "dG%",
                "mdl BW", "meas BW", "dBW%", "flag",
            ],
            float_fmt="{:.1f}",
        )
        for row in self.rows:
            p = row.params
            table.add_row(
                [
                    p.ni, p.no, p.ro, p.kr, p.b, row.plan,
                    row.model_gflops,
                    row.measured_gflops,
                    100.0 * row.flops_drift,
                    row.model_mbw / GB,
                    row.measured_bw / GB,
                    100.0 * row.bandwidth_drift,
                    "DRIFT" if row.flagged(self.threshold) else "ok",
                ]
            )
        header = (
            f"model-vs-measured drift "
            f"(threshold +-{self.threshold * 100:.0f}%, "
            f"{len(self.flagged)}/{len(self.rows)} flagged; BW in GB/s)"
        )
        return header + "\n" + table.render()

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (benchmark artifacts)."""
        return {
            "threshold": self.threshold,
            "flagged": len(self.flagged),
            "rows": [
                {
                    "params": [p.ni, p.no, p.ro, p.kr, p.b],
                    "plan": row.plan,
                    "model_gflops": row.model_gflops,
                    "measured_gflops": row.measured_gflops,
                    "flops_drift": row.flops_drift,
                    "model_mbw_gbps": row.model_mbw / GB,
                    "measured_bw_gbps": row.measured_bw / GB,
                    "bandwidth_drift": row.bandwidth_drift,
                    "flagged": row.flagged(self.threshold),
                }
                for row in self.rows
                for p in [row.params]
            ],
        }


def drift_report(
    configs: Sequence[Any],
    spec: SW26010Spec = DEFAULT_SPEC,
    threshold: float = DEFAULT_DRIFT_THRESHOLD,
    telemetry=None,
    backend: str = "numpy",
) -> DriftReport:
    """Join model prediction against measured execution for each config.

    ``configs`` are :class:`~repro.core.params.ConvParams`.  Each layer is
    planned by the heuristic planner, scored by the closed-form model, and
    timed by the engine (with ``telemetry`` threaded through, so the same
    pass also populates counters and spans).
    """
    from repro.core.conv import ConvolutionEngine
    from repro.core.planner import plan_convolution

    if threshold <= 0:
        raise ValueError(f"drift threshold must be positive, got {threshold}")
    rows: List[DriftRow] = []
    for params in configs:
        choice = plan_convolution(params, spec=spec)
        engine = ConvolutionEngine(
            choice.plan, spec=spec, backend=backend, telemetry=telemetry
        )
        report = engine.evaluate()
        estimate = choice.estimate
        rows.append(
            DriftRow(
                params=params,
                plan=choice.kind,
                model_gflops=estimate.gflops,
                measured_gflops=report.gflops,
                model_mbw=estimate.mbw_mem,
                measured_bw=report.effective_dma_bandwidth,
            )
        )
    return DriftReport(rows=rows, threshold=threshold)
