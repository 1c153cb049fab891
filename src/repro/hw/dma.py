"""The per-CG DMA engine and its empirical bandwidth model (Table II).

Section III-D of the paper measures the effective DMA bandwidth between main
memory and LDM as a function of the contiguous block size each CPE transfers:
it ranges from ~4 GB/s at 32-byte blocks to ~36 GB/s at 4 KiB blocks, with a
knee around 256 bytes and best behaviour for blocks "larger than 256B and
aligned in 128B".  Every LDM-blocking decision in Section IV exists to push
the leading-dimension block size up this curve, so the simulator charges DMA
time from exactly this curve.

:class:`DMABandwidthModel` interpolates Table II (piecewise-linear in
log(block size), clamped at the ends), with an alignment derating for blocks
that are not multiples of the 128-byte DDR3 burst.  :class:`DMAEngine` moves
real NumPy data between :class:`~repro.hw.memory.MainMemory` tensors and LDM
buffers, returning :class:`DMATransfer` handles whose completion time enables
the double-buffering overlap of Section IV-A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import SimulationError
from repro.common.units import GB
from repro.hw.ldm import LDMBuffer
from repro.hw.memory import MainMemory, MemoryStats
from repro.hw.spec import SW26010Spec, TABLE_II_DMA_BANDWIDTH
from repro.telemetry import current_telemetry


class DMABandwidthModel:
    """Effective DMA bandwidth as a function of per-CPE block size.

    Calibrated to Table II.  Query points that coincide with a measured block
    size return the measured value exactly (so the Table II micro-benchmark
    reproduces the table verbatim); other block sizes interpolate linearly in
    ``log2(size)``; sizes outside the measured range clamp to the end points.
    :meth:`bandwidth` memoizes its answers on the instance, so a model is
    read-only once built.
    """

    def __init__(
        self,
        table: Optional[Dict[int, Tuple[float, float]]] = None,
        alignment: int = 128,
        misalignment_factor: float = 0.75,
    ):
        table = dict(table if table is not None else TABLE_II_DMA_BANDWIDTH)
        if not table:
            raise ValueError("DMA bandwidth table must not be empty")
        self._sizes = sorted(table)
        self._exact = set(self._sizes)
        self._get = [table[s][0] for s in self._sizes]
        self._put = [table[s][1] for s in self._sizes]
        self.alignment = alignment
        self.misalignment_factor = misalignment_factor
        self._memo: Dict[Tuple[int, str, bool], float] = {}

    def get_bandwidth(self, block_bytes: int, aligned: bool = True) -> float:
        """Memory -> LDM bandwidth in bytes/second for a given block size."""
        return self._lookup(block_bytes, self._get, aligned)

    def put_bandwidth(self, block_bytes: int, aligned: bool = True) -> float:
        """LDM -> memory bandwidth in bytes/second for a given block size."""
        return self._lookup(block_bytes, self._put, aligned)

    def bandwidth(self, block_bytes: int, direction: str, aligned: bool = True) -> float:
        """Bandwidth for ``direction`` in {"get", "put"}, memoized per
        ``(block_bytes, direction, aligned)``."""
        key = (block_bytes, direction, aligned)
        value = self._memo.get(key)
        if value is None:
            if direction == "get":
                value = self.get_bandwidth(block_bytes, aligned)
            elif direction == "put":
                value = self.put_bandwidth(block_bytes, aligned)
            else:
                raise ValueError(f"direction must be 'get' or 'put', got {direction!r}")
            self._memo[key] = value
        return value

    def effective_bandwidth(
        self, block_bytes: int, get_fraction: float = 0.5, aligned: bool = True
    ) -> float:
        """Blend of get/put bandwidth for mixed traffic.

        ``get_fraction`` is the fraction of bytes moved by DMA get; the blend
        is harmonic (time-weighted), matching how a loop alternating gets and
        puts actually spends time.
        """
        if not 0.0 <= get_fraction <= 1.0:
            raise ValueError(f"get_fraction must be in [0, 1], got {get_fraction}")
        bw_get = self.get_bandwidth(block_bytes, aligned)
        bw_put = self.put_bandwidth(block_bytes, aligned)
        inv = get_fraction / bw_get + (1.0 - get_fraction) / bw_put
        return 1.0 / inv

    def is_aligned(self, block_bytes: int) -> bool:
        """Whether a block size meets the 128-byte DDR3 burst alignment."""
        return block_bytes % self.alignment == 0

    def _lookup(self, block_bytes: int, column: List[float], aligned: bool) -> float:
        if block_bytes <= 0:
            raise ValueError(f"block size must be positive, got {block_bytes}")
        sizes = self._sizes
        exact = block_bytes in self._exact
        if block_bytes <= sizes[0]:
            value = column[0]
        elif block_bytes >= sizes[-1]:
            value = column[-1]
        else:
            # Piecewise-linear in log2(size).
            hi = next(i for i, s in enumerate(sizes) if s >= block_bytes)
            lo = hi - 1
            if sizes[hi] == block_bytes:
                value = column[hi]
            else:
                x = math.log2(block_bytes)
                x0, x1 = math.log2(sizes[lo]), math.log2(sizes[hi])
                t = (x - x0) / (x1 - x0)
                value = column[lo] * (1.0 - t) + column[hi] * t
        # Measured table entries already include any alignment effect; the
        # derate only applies to interpolated, misaligned block sizes.
        if not exact and not aligned and not self.is_aligned(block_bytes):
            value *= self.misalignment_factor
        return value * GB


@lru_cache(maxsize=None)
def table_ii_model(alignment: int = 128) -> DMABandwidthModel:
    """The default Table II model at one burst alignment, shared by every
    engine that prices against it and by :mod:`repro.perf.dma_model`'s
    lookups (so they share its lookup memo)."""
    return DMABandwidthModel(alignment=alignment)


@dataclass
class DMATransfer:
    """Handle for an issued (possibly in-flight) DMA transfer.

    ``start`` / ``finish`` are simulated timestamps in seconds; double
    buffering inspects them to compute overlap with computation.
    """

    direction: str
    nbytes: int
    block_bytes: int
    start: float
    finish: float
    tensor: str = ""

    @property
    def duration(self) -> float:
        return self.finish - self.start


class DMAEngine:
    """Moves data between main-memory tensors and LDM buffers, charging time.

    One engine models the aggregate DMA capability of one CG's CPE cluster:
    the 64 CPEs issue DMA descriptors collectively (each moving
    ``block_bytes`` contiguous bytes), and the effective bandwidth for the
    whole transfer is the Table II figure for that block size.

    The engine is sequential per channel: a new transfer starts no earlier
    than the previous one on the same channel finished.  Separate channels
    model the double-buffer pattern, where the *next* tile's load overlaps
    the current tile's compute.
    """

    def __init__(
        self,
        memory: MainMemory,
        spec: Optional[SW26010Spec] = None,
        bandwidth_model: Optional[DMABandwidthModel] = None,
        fault_plan=None,
        telemetry=None,
    ):
        self.memory = memory
        self.spec = spec or memory.spec
        self.model = bandwidth_model or DMABandwidthModel(
            alignment=self.spec.dma_alignment
        )
        #: Optional :class:`repro.faults.FaultPlan`; ``None`` = healthy DMA.
        self.fault_plan = fault_plan
        self.telemetry = telemetry if telemetry is not None else current_telemetry()
        self.stats = MemoryStats()
        self._channel_free_at: Dict[int, float] = {}
        self.log: List[DMATransfer] = []

    def dma_get(
        self,
        tensor_name: str,
        src_index,
        dst: LDMBuffer,
        dst_index=slice(None),
        block_bytes: Optional[int] = None,
        at_time: float = 0.0,
        channel: int = 0,
    ) -> DMATransfer:
        """DMA a main-memory slice into an LDM buffer.

        ``block_bytes`` is the contiguous block size each CPE's descriptor
        moves (the leading-dimension size the paper's blocking controls); it
        defaults to the innermost contiguous extent of the source slice.
        """
        tensor = self.memory.get(tensor_name)
        data = np.ascontiguousarray(tensor[src_index])
        dst.write(dst_index, data)
        nbytes = int(data.nbytes)
        block = block_bytes if block_bytes is not None else _leading_block(data)
        transfer = self._schedule("get", nbytes, block, at_time, channel, tensor_name)
        self.memory.stats.bytes_read += nbytes
        self.memory.stats.transfers += 1
        return transfer

    def dma_put(
        self,
        src: LDMBuffer,
        src_index,
        tensor_name: str,
        dst_index,
        block_bytes: Optional[int] = None,
        at_time: float = 0.0,
        channel: int = 0,
        accumulate: bool = False,
    ) -> DMATransfer:
        """DMA an LDM buffer slice back to a main-memory tensor.

        With ``accumulate=True`` the destination is updated with ``+=``,
        which plans use when different tiles contribute partial sums to the
        same output region.
        """
        tensor = self.memory.get(tensor_name)
        data = src.read(src_index)
        if accumulate:
            tensor[dst_index] += data
        else:
            tensor[dst_index] = data
        nbytes = int(np.asarray(data).nbytes)
        block = block_bytes if block_bytes is not None else _leading_block(np.asarray(data))
        transfer = self._schedule("put", nbytes, block, at_time, channel, tensor_name)
        self.memory.stats.bytes_written += nbytes
        self.memory.stats.transfers += 1
        return transfer

    def _schedule(
        self,
        direction: str,
        nbytes: int,
        block_bytes: int,
        at_time: float,
        channel: int,
        tensor: str,
    ) -> DMATransfer:
        if nbytes < 0:
            raise SimulationError("negative transfer size")
        aligned = self.model.is_aligned(block_bytes)
        bandwidth = self.model.bandwidth(block_bytes, direction, aligned=aligned)
        if self.fault_plan is not None:
            # Injected degradation: a hung descriptor raises DMATimeoutError
            # (recorded in the plan's ledger); surviving transfers run at
            # the derated bandwidth.
            self.fault_plan.maybe_dma_timeout(nbytes, direction, tensor)
            bandwidth *= self.fault_plan.dma_bandwidth_factor
        start = max(at_time, self._channel_free_at.get(channel, 0.0))
        duration = nbytes / bandwidth if nbytes else 0.0
        finish = start + duration
        self._channel_free_at[channel] = finish
        transfer = DMATransfer(
            direction=direction,
            nbytes=nbytes,
            block_bytes=block_bytes,
            start=start,
            finish=finish,
            tensor=tensor,
        )
        self.log.append(transfer)
        self.stats.transfers += 1
        self.stats.busy_seconds += duration
        if direction == "get":
            self.stats.bytes_read += nbytes
        else:
            self.stats.bytes_written += nbytes
        counters = self.telemetry.counters
        counters.add("dma.transfers")
        counters.add(f"dma.bytes_{direction}", nbytes)
        self.telemetry.tracer.record_sim(
            f"dma.{direction}",
            start,
            finish,
            track=f"dma-ch{channel}",
            cat="dma",
            tensor=tensor,
            nbytes=nbytes,
            block_bytes=block_bytes,
        )
        return transfer

    def channel_free_at(self, channel: int = 0) -> float:
        """Simulated time at which a channel becomes idle."""
        return self._channel_free_at.get(channel, 0.0)

    def total_bytes(self) -> int:
        return self.stats.bytes_total

    def reset(self) -> None:
        """Clear accounting (tensors in memory are untouched)."""
        self.stats.reset()
        self._channel_free_at.clear()
        self.log.clear()


def _leading_block(data: np.ndarray) -> int:
    """Contiguous leading-dimension extent of an array, in bytes."""
    if data.ndim == 0:
        return int(data.nbytes)
    return int(data.shape[-1] * data.itemsize)
