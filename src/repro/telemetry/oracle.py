"""Communication-lower-bound oracle (Demmel--Dinh style).

Every convolution algorithm in the zoo — the paper's direct mesh mapping,
GEMM-lowered im2col, fused Winograd — pays a different DMA bill for the
same layer.  The drift report (:mod:`repro.telemetry.drift`) judges a
schedule against the *model's* bandwidth prediction; this module judges it
against physics: the Demmel--Dinh communication lower bound for
convolution/matmul-class kernels on a machine with a fast memory of ``M``
words,

    W  >=  max( compulsory bytes,  2 * MACs / sqrt(M) * word_bytes )

where the compulsory term is the one-touch traffic (input + filter +
output each moved once) and the ``2 * MACs / sqrt(M)`` term is the
Hong--Kung / Irony--Toledo--Tiskin re-use limit: no blocking scheme can
amortize more than ``sqrt(M)`` MACs per word resident in fast memory.
For the SW26010 the fast memory is the core group's aggregate LDM
(64 CPEs x 64 KB).

:func:`oracle_report` measures each legal algorithm family's actual DMA
bytes by walking its timed schedule, and reports the **attainment
ratio** ``bound / measured`` per (layer, algorithm) — 1.0 means the
schedule is communication-optimal, small values mean the algorithm is
re-reading data a better blocking could keep resident.  A row whose
measured traffic *undercuts* the bound is flagged too: that is not a fast
kernel, it is a traffic-accounting bug in the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Union

from repro.common.schema import ORACLE_SCHEMA
from repro.common.tables import TextTable
from repro.common.units import MB
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC

#: Attainment below this fraction of the lower bound is flagged as
#: communication-wasteful.  The direct schedules sit well above it; a
#: flagged row means the blocking re-reads operands an order of magnitude
#: more than the re-use limit allows.
DEFAULT_ATTAINMENT_THRESHOLD = 0.02


def demmel_dinh_bound_bytes(
    params: Any, spec: SW26010Spec = DEFAULT_SPEC
) -> int:
    """Closed-form communication lower bound for one conv layer, in bytes.

    ``max(compulsory, 2 * MACs / sqrt(M_words) * DS)`` with ``M_words`` the
    core group's aggregate LDM capacity in doubles.  The bound is algorithm
    independent: it holds for any schedule that computes the layer's MACs
    with the CG's fast memory, direct or lowered.
    """
    ds = spec.double_bytes
    m_words = (spec.ldm_bytes * spec.cpes_per_group) // ds
    if m_words <= 0:
        raise ValueError("spec has no LDM capacity")
    macs = params.flops() // 2
    rearrangement = 2.0 * macs / math.sqrt(m_words) * ds
    compulsory = params.total_bytes(ds)
    return max(compulsory, int(math.ceil(rearrangement)))


@dataclass(frozen=True)
class OracleRow:
    """Measured-vs-bound join for one (layer, algorithm) pair."""

    params: Any  # ConvParams
    algorithm: str  # "direct" | "im2col" | "winograd"
    plan: str  # plan family / describe string
    measured_bytes: int  # DMA gets + puts of the walked schedule
    bound_bytes: int  # Demmel-Dinh lower bound
    gflops: float  # measured (simulated) flop rate, direct-equivalent

    @property
    def attainment(self) -> float:
        """``bound / measured``: 1.0 = communication-optimal schedule."""
        if self.measured_bytes <= 0:
            return 0.0
        return self.bound_bytes / self.measured_bytes

    @property
    def undercuts_bound(self) -> bool:
        """Measured traffic below the lower bound: an accounting bug."""
        return self.measured_bytes < self.bound_bytes

    def flagged(self, threshold: float) -> bool:
        return self.undercuts_bound or self.attainment < threshold


@dataclass
class OracleReport:
    """Per-(layer, algorithm) oracle rows plus the judging threshold."""

    rows: List[OracleRow]
    threshold: float

    @property
    def flagged(self) -> List[OracleRow]:
        return [row for row in self.rows if row.flagged(self.threshold)]

    def render(self) -> str:
        """Aligned attainment table, one row per (layer, algorithm)."""
        table = TextTable(
            [
                "Ni", "No", "out", "k", "B", "algo", "plan",
                "meas MB", "bound MB", "attain", "Gflop/s", "flag",
            ],
            float_fmt="{:.1f}",
        )
        for row in self.rows:
            p = row.params
            if row.undercuts_bound:
                flag = "UNDER-BOUND"
            elif row.flagged(self.threshold):
                flag = "WASTEFUL"
            else:
                flag = "ok"
            table.add_row(
                [
                    p.ni, p.no, p.ro, p.kr, p.b,
                    row.algorithm, row.plan,
                    row.measured_bytes / MB,
                    row.bound_bytes / MB,
                    f"{row.attainment:.3f}",
                    row.gflops,
                    flag,
                ]
            )
        header = (
            f"communication-lower-bound oracle "
            f"(attainment = bound/measured, flag < {self.threshold:.2f}; "
            f"{len(self.flagged)}/{len(self.rows)} flagged)"
        )
        return header + "\n" + table.render()

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (benchmark artifacts, zoo verify stage)."""
        return {
            "schema": ORACLE_SCHEMA,
            "threshold": self.threshold,
            "flagged": len(self.flagged),
            "rows": [
                {
                    "params": [p.ni, p.no, p.ro, p.kr, p.b],
                    "algorithm": row.algorithm,
                    "plan": row.plan,
                    "measured_bytes": row.measured_bytes,
                    "bound_bytes": row.bound_bytes,
                    "attainment": row.attainment,
                    "gflops": row.gflops,
                    "flagged": row.flagged(self.threshold),
                }
                for row in self.rows
                for p in [row.params]
            ],
        }


def oracle_report(
    configs: Sequence[Any],
    spec: SW26010Spec = DEFAULT_SPEC,
    algorithms: Union[None, str, Sequence[str]] = "all",
    backend: str = "numpy",
    threshold: float = DEFAULT_ATTAINMENT_THRESHOLD,
    telemetry=None,
) -> OracleReport:
    """Measure every legal algorithm family's DMA traffic against the bound.

    ``configs`` are :class:`~repro.core.params.ConvParams`.  For each layer,
    each legal family in ``algorithms`` (default: the whole zoo) is planned
    — the direct algorithm by the heuristic planner, the lowered ones at
    their base GEMM blocking — and its timed schedule is walked to count
    actual DMA gets and puts.  Illegal (algorithm, shape) pairs are simply
    skipped, so a 5x5 layer yields no Winograd row.
    """
    # Imported here, not at module top: repro.core imports repro.telemetry.
    from repro.core.algorithms import (
        algorithm_legal,
        engine_for_plan,
        make_lowered_plan,
        resolve_algorithms,
    )
    from repro.core.planner import plan_convolution

    if threshold <= 0:
        raise ValueError(f"attainment threshold must be positive, got {threshold}")
    algos = resolve_algorithms(algorithms)
    rows: List[OracleRow] = []
    for params in configs:
        bound = demmel_dinh_bound_bytes(params, spec)
        for algo in algos:
            if not algorithm_legal(algo, params):
                continue
            if algo == "direct":
                plan = plan_convolution(params, spec=spec).plan
                label = plan.name
            else:
                plan = make_lowered_plan(algo, params, spec=spec)
                label = plan.name
            engine = engine_for_plan(
                plan, spec=spec, backend=backend, telemetry=telemetry
            )
            report = engine.evaluate()
            rows.append(
                OracleRow(
                    params=params,
                    algorithm=algo,
                    plan=label,
                    measured_bytes=int(report.bytes_get + report.bytes_put),
                    bound_bytes=bound,
                    gflops=report.gflops,
                )
            )
    return OracleReport(rows=rows, threshold=threshold)
