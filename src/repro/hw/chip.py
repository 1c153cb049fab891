"""Core-group composition and the Section III-D row partitioning.

A :class:`CoreGroup` ties together the pieces one CG's convolution plan
touches: main memory, the DMA engine and the 8x8 CPE mesh.

:func:`partition_rows` is the multi-CG scaling scheme of Section III-D:
output images are split into four parts along the row dimension, each CG
running the same single-CG plan on its strip, and the slowest CG gates
the layer (:func:`repro.core.conv.evaluate_chip`).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.common.errors import SimulationError
from repro.hw.dma import DMAEngine
from repro.hw.memory import MainMemory
from repro.hw.mesh import CPEMesh
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC


class CoreGroup:
    """One of the four core groups: 8x8 CPE mesh + memory + DMA.

    ``fault_plan`` (a :class:`repro.faults.FaultPlan`) degrades this CG:
    DMA bandwidth derating and transfer timeouts, fenced CPEs, bus
    stalls/drops and LDM ECC events, all seeded and ledgered.
    """

    def __init__(self, index: int, spec: SW26010Spec = DEFAULT_SPEC, fault_plan=None):
        self.index = index
        self.spec = spec
        self.fault_plan = fault_plan
        self.memory = MainMemory(spec)
        self.dma = DMAEngine(self.memory, spec, fault_plan=fault_plan)
        self.mesh = CPEMesh(spec, fault_plan=fault_plan)

    @property
    def peak_flops(self) -> float:
        """Peak double-precision flop/s of this CG (742.4 Gflops)."""
        return self.spec.peak_flops_per_cg

    def healthy_cpes(self) -> int:
        """Number of CPEs not fenced off by the fault plan."""
        return sum(1 for cpe in self.mesh if not cpe.fenced)

    def total_cpe_flops(self) -> int:
        """Sum of flops actually executed by the CPEs (functional count)."""
        return sum(cpe.stats.flops for cpe in self.mesh)

    def reset_stats(self) -> None:
        self.dma.reset()
        self.memory.stats.reset()
        self.mesh.reset_stats()
        for cpe in self.mesh:
            cpe.stats.reset()


def partition_rows(rows: int, num_groups: int) -> List[Tuple[int, int]]:
    """Split ``rows`` output rows into ``num_groups`` [start, stop) strips.

    The Section III-D split: rows are dealt as evenly as possible; a CG
    may receive zero rows only when there are fewer rows than CGs.
    """
    if num_groups < 1:
        raise ValueError(f"need at least one core group, got {num_groups}")
    if rows < 0:
        raise ValueError(f"rows must be non-negative, got {rows}")
    base, extra = divmod(rows, num_groups)
    strips = []
    start = 0
    for i in range(num_groups):
        size = base + (1 if i < extra else 0)
        strips.append((start, start + size))
        start += size
    if start != rows:
        raise SimulationError("row partition did not cover all rows")
    return strips
