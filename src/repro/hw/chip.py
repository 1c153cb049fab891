"""Core-group and chip composition, including the NoC partitioning scheme.

A :class:`CoreGroup` ties together the pieces one CG's convolution plan
touches: main memory, the DMA engine, the gload port, the MPE (modeled as a
simple orchestrator record) and the 8x8 CPE mesh.

:class:`SW26010Chip` holds the four CGs and implements the multi-CG scaling
scheme of Section III-D: output images are partitioned into four parts along
the row dimension, each CG processing one fourth, with near-linear scaling.
The chip also models the user-visible split between each CG's *private*
memory space and the *shared* space reachable over the NoC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.common.errors import SimulationError
from repro.hw.dma import DMAEngine
from repro.hw.memory import MainMemory, GloadPort
from repro.hw.mesh import CPEMesh
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC


@dataclass
class MPE:
    """The management processing element.

    The MPE runs the control program: task scheduling, DMA orchestration and
    communication with the other CGs.  Its compute contribution to the
    convolution kernels is negligible, so the model only records the tasks it
    dispatched.
    """

    core_group: int
    tasks_dispatched: int = 0

    def dispatch(self, count: int = 1) -> None:
        self.tasks_dispatched += count


class CoreGroup:
    """One of the four core groups: MPE + 8x8 CPE mesh + memory + DMA.

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
        self.gload = GloadPort(self.memory, spec)
        self.mesh = CPEMesh(spec, fault_plan=fault_plan)
        self.mpe = MPE(core_group=index)

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
        self.gload.stats.reset()
        self.mesh.reset_stats()
        for cpe in self.mesh:
            cpe.stats.reset()


@dataclass
class MemoryPartition:
    """The user-controlled private/shared memory split (Section III-B)."""

    private_bytes: int
    shared_bytes: int

    def __post_init__(self) -> None:
        if self.private_bytes < 0 or self.shared_bytes < 0:
            raise ValueError("partition sizes must be non-negative")


def partition_rows(rows: int, num_groups: int) -> List[Tuple[int, int]]:
    """Split ``rows`` output rows into ``num_groups`` [start, stop) strips.

    The Section III-D split: rows are dealt as evenly as possible; a CG
    may receive zero rows only when there are fewer rows than CGs.  A
    plain function, so callers that only need the strips (chip timing,
    plan-cache warming) never build a chip.
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


class SW26010Chip:
    """The full processor: four core groups joined by a NoC.

    The chip-level workload decomposition follows Section III-D: the output
    image rows are split evenly across the CGs, each CG running the same
    single-CG plan on its strip.  :func:`partition_rows` implements that
    split, and :meth:`scaled_time` composes per-CG timings into a chip
    timing (the slowest CG gates completion, which is what makes the
    paper's near-linear scaling claim checkable).
    """

    def __init__(self, spec: SW26010Spec = DEFAULT_SPEC, fault_plan=None):
        self.spec = spec
        self.fault_plan = fault_plan
        self.core_groups: List[CoreGroup] = [
            CoreGroup(i, spec, fault_plan=fault_plan)
            for i in range(spec.num_core_groups)
        ]
        total = spec.memory_bytes * spec.num_core_groups
        # Default partition: all private, no shared window.
        self.partition = MemoryPartition(private_bytes=total, shared_bytes=0)

    def set_partition(self, shared_fraction: float) -> MemoryPartition:
        """Reserve a fraction of total memory as the NoC-shared space."""
        if not 0.0 <= shared_fraction <= 1.0:
            raise ValueError(
                f"shared_fraction must be in [0, 1], got {shared_fraction}"
            )
        total = self.spec.memory_bytes * self.spec.num_core_groups
        shared = int(total * shared_fraction)
        self.partition = MemoryPartition(
            private_bytes=total - shared, shared_bytes=shared
        )
        return self.partition

    def partition_rows(self, rows: int, num_groups: Optional[int] = None) -> List[Tuple[int, int]]:
        """Split ``rows`` output rows into per-CG [start, stop) strips.

        :func:`partition_rows` over this chip's core groups (or
        ``num_groups`` of them).
        """
        n = num_groups if num_groups is not None else len(self.core_groups)
        return partition_rows(rows, n)

    @staticmethod
    def scaled_time(per_group_seconds: List[float]) -> float:
        """Chip completion time: the slowest CG gates the whole layer."""
        if not per_group_seconds:
            raise ValueError("need at least one per-CG timing")
        return max(per_group_seconds)

    def reset_stats(self) -> None:
        for cg in self.core_groups:
            cg.reset_stats()
