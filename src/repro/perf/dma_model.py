"""Measured MEM<->LDM bandwidth (the MBW side of the model).

Thin, import-friendly wrappers over the Table II interpolation that lives
with the DMA engine in :mod:`repro.hw.dma`, so the performance model and the
planner can ask "what bandwidth will this plan's DMA block size see?"
without constructing hardware objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.hw.dma import DMABandwidthModel, table_ii_model

#: Fraction of the Table II (sequential micro-benchmark) bandwidth that a
#: convolution's strided, multi-stream DMA traffic actually achieves.
#: Calibrated against the measured-MBW column of Table III: the paper's
#: in-kernel bandwidths (18.2-21.9 GB/s) sit at ~70% of the micro-benchmark
#: curve at the corresponding block sizes, the usual signature of DRAM page
#: misses and descriptor scatter that a sequential sweep does not see.
DMA_STRIDE_EFFICIENCY = 0.70


def measured_dma_bandwidth(
    block_bytes: int,
    direction: str = "get",
    model: Optional[DMABandwidthModel] = None,
) -> float:
    """Table II bandwidth (bytes/s) for one DMA direction at a block size."""
    m = model or table_ii_model()
    return m.bandwidth(block_bytes, direction, aligned=m.is_aligned(block_bytes))


def mem_ldm_mbw(
    block_bytes: int,
    get_fraction: float = 0.5,
    model: Optional[DMABandwidthModel] = None,
) -> float:
    """Effective MEM<->LDM bandwidth for mixed get/put traffic.

    This is the ``MBW`` the Table III evaluation compares against each
    plan's ``RBW``: a time-weighted blend of the get and put curves at the
    plan's leading-dimension block size.
    """
    m = model or table_ii_model()
    return m.effective_bandwidth(
        block_bytes, get_fraction=get_fraction, aligned=m.is_aligned(block_bytes)
    )


@dataclass(frozen=True)
class DMAStream:
    """One DMA traffic stream of a convolution plan.

    ``bytes_moved`` is the stream's total volume over the layer (only the
    *ratio* between streams matters for the blend); ``block_bytes`` is the
    per-CPE contiguous descriptor size the plan's data layout yields;
    ``direction`` is ``"get"`` (memory -> LDM) or ``"put"``.
    """

    name: str
    bytes_moved: float
    block_bytes: int
    direction: str

    def __post_init__(self) -> None:
        if self.bytes_moved < 0:
            raise ValueError(f"stream {self.name!r}: negative byte volume")
        if self.block_bytes <= 0:
            raise ValueError(f"stream {self.name!r}: block size must be positive")
        if self.direction not in ("get", "put"):
            raise ValueError(f"stream {self.name!r}: bad direction {self.direction!r}")


def blended_mbw(
    streams: Sequence[DMAStream],
    stride_efficiency: float = DMA_STRIDE_EFFICIENCY,
    model: Optional[DMABandwidthModel] = None,
) -> float:
    """Effective MEM<->LDM bandwidth over a plan's whole DMA traffic mix.

    Time-weighted (harmonic) blend: each stream contributes time
    ``bytes / bandwidth(block, direction)``, and the result is total bytes
    over total time, derated by ``stride_efficiency``.  This is the ``MBW``
    the model compares against Eq. 1/Eq. 2's ``RBW``.
    """
    if not streams:
        raise ValueError("need at least one DMA stream")
    if not 0.0 < stride_efficiency <= 1.0:
        raise ValueError(
            f"stride_efficiency must be in (0, 1], got {stride_efficiency}"
        )
    m = model or table_ii_model()
    total_bytes = sum(s.bytes_moved for s in streams)
    if total_bytes == 0:
        raise ValueError("all DMA streams are empty")
    total_time = 0.0
    for s in streams:
        bw = m.bandwidth(s.block_bytes, s.direction, aligned=m.is_aligned(s.block_bytes))
        total_time += s.bytes_moved / bw
    return (total_bytes / total_time) * stride_efficiency
