"""One Computing Processing Element (CPE).

A CPE bundles the per-core resources the paper's kernels use: the 64 KB LDM,
the 32-entry vector register file, and counters for the work it performs.
The dual-pipeline *timing* of a CPE's instruction stream is modeled
separately in :mod:`repro.isa.pipeline`; this class is the *functional*
container the mesh-level algorithms compute with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.common.errors import CPEFaultError
from repro.hw.ldm import LDM
from repro.hw.regfile import VectorRegisterFile
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.telemetry import current_telemetry


@dataclass
class CPEStats:
    """Work counters for one CPE."""

    flops: int = 0
    ldm_bytes_loaded: int = 0
    ldm_bytes_stored: int = 0
    bus_puts: int = 0
    bus_gets: int = 0

    def reset(self) -> None:
        self.flops = 0
        self.ldm_bytes_loaded = 0
        self.ldm_bytes_stored = 0
        self.bus_puts = 0
        self.bus_gets = 0


class CPE:
    """A computing processing element at mesh position (row, col)."""

    def __init__(
        self,
        row: int,
        col: int,
        spec: SW26010Spec = DEFAULT_SPEC,
        fault_plan=None,
        telemetry=None,
    ):
        self.row = row
        self.col = col
        self.spec = spec
        self.telemetry = telemetry if telemetry is not None else current_telemetry()
        self.ldm = LDM(spec, fault_plan=fault_plan, telemetry=self.telemetry)
        self.registers = VectorRegisterFile(spec)
        self.stats = CPEStats()
        #: A fenced CPE is disabled by the resource manager (degraded CG);
        #: any attempt to compute on it raises :class:`CPEFaultError`.
        self.fenced = False

    @property
    def coords(self) -> Tuple[int, int]:
        return (self.row, self.col)

    def fence(self) -> None:
        """Disable this CPE (degraded-hardware simulation)."""
        self.fenced = True

    def check_available(self) -> None:
        """Raise :class:`CPEFaultError` if this CPE is fenced."""
        if self.fenced:
            raise CPEFaultError(
                f"CPE({self.row},{self.col}) is fenced and cannot execute"
            )

    def count_fma(self, elements: int) -> None:
        """Record ``elements`` fused multiply-adds (2 flops each)."""
        flops = 2 * elements
        self.stats.flops += flops
        self.telemetry.counters.add("cpe.flops", flops)

    def count_ldm_load(self, nbytes: int) -> None:
        self.stats.ldm_bytes_loaded += nbytes
        self.telemetry.counters.add("cpe.ldm_bytes_loaded", nbytes)

    def count_ldm_store(self, nbytes: int) -> None:
        self.stats.ldm_bytes_stored += nbytes
        self.telemetry.counters.add("cpe.ldm_bytes_stored", nbytes)

    def fma_tile(self, acc: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
        """acc += a @ b with flop accounting (an LDM-resident GEMM tile).

        ``a`` is (m, k), ``b`` is (k, n), ``acc`` is (m, n).  This is the
        work one CPE performs per register-communication step of Fig. 3.
        """
        self.check_available()
        acc += a @ b
        m, k = a.shape
        n = b.shape[1]
        self.count_fma(m * n * k)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CPE({self.row},{self.col})"
