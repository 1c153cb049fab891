"""Architectural constants of the SW26010 processor.

All numbers come straight from the paper (Sections I, III-B, III-D, V, VI)
or from the TaihuLight system paper it cites:

* 4 core groups (CGs) per chip, 1 MPE + 64 CPEs per CG, CPEs in an 8x8 mesh.
* 1.45 GHz CPE clock.
* 256-bit vector units: 4 doubles per vector, fused multiply-add = 8
  double-precision flops per CPE per cycle, so one CG peaks at
  64 * 1.45e9 * 8 = 742.4 Gflops (the figure used throughout Fig. 2) and the
  chip at ~2.97 Tflops (the paper quotes 3.06 Tflops including MPEs).
* 64 KB LDM per CPE, 16 KB L1 instruction cache.
* LDM->register bandwidth 46.4 GB/s per CPE (32 B/cycle at 1.45 GHz, Fig. 2).
* gload (direct main-memory access from a CPE) physical bandwidth 8 GB/s
  per CG (Fig. 2).
* DDR3 peak 36 GB/s per CG, 144 GB/s per chip.
* Dual pipelines: P0 executes floating-point/vector ops, P1 memory and
  control ops; both issue in-order from a shared decoder, two per cycle.
* Latencies (Section VI-B): load = 4 cycles, vfmad = 7 cycles, fully
  pipelined (1/cycle throughput each).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.common.units import KIB, GB, GHZ


@dataclass(frozen=True)
class SW26010Spec:
    """Immutable description of the SW26010 architecture.

    Instances are cheap value objects; the simulator components all take a
    spec so tests can shrink the machine (e.g. a 4x4 mesh as in Fig. 3 of the
    paper) without touching the component logic.
    """

    #: Number of core groups on the chip.
    num_core_groups: int = 4
    #: Mesh dimension: the CPE cluster is ``mesh_size`` x ``mesh_size``.
    mesh_size: int = 8
    #: CPE clock in Hz.
    clock_hz: float = 1.45 * GHZ
    #: Vector width in double-precision lanes (256-bit vectors).
    vector_lanes: int = 4
    #: Double-precision flops per CPE per cycle (vector FMA: 4 lanes x 2).
    flops_per_cycle: int = 8
    #: LDM capacity per CPE in bytes.
    ldm_bytes: int = 64 * KIB
    #: Number of addressable 256-bit vector registers per CPE.
    vector_registers: int = 32
    #: LDM -> register bandwidth per CPE in bytes/second (32 B/cycle).
    ldm_bandwidth: float = 46.4 * GB
    #: gload physical bandwidth per CG in bytes/second.
    gload_bandwidth: float = 8.0 * GB
    #: DDR3 peak bandwidth per CG in bytes/second.
    ddr_peak_bandwidth: float = 36.0 * GB
    #: Main memory per CG in bytes.
    memory_bytes: int = 8 * 1024**3
    #: Bytes moved per register-communication put/get (256-bit).
    bus_packet_bytes: int = 32
    #: Transfer-buffer depth per CPE (pending bus packets), producer-consumer.
    transfer_buffer_depth: int = 4
    #: Instruction latencies in cycles (Section VI-B).
    load_latency: int = 4
    fma_latency: int = 7
    #: Size of a double in bytes.
    double_bytes: int = 8
    #: Alignment (bytes) the DDR3 interface wants for near-peak bandwidth.
    dma_alignment: int = 128

    @property
    def cpes_per_group(self) -> int:
        """Number of CPEs in one core group."""
        return self.mesh_size * self.mesh_size

    @property
    def peak_flops_per_cpe(self) -> float:
        """Peak double-precision flop/s of one CPE."""
        return self.clock_hz * self.flops_per_cycle

    @property
    def peak_flops_per_cg(self) -> float:
        """Peak double-precision flop/s of one core group (742.4 Gflops)."""
        return self.peak_flops_per_cpe * self.cpes_per_group

    @property
    def peak_flops_chip(self) -> float:
        """Peak double-precision flop/s of the whole chip (CPEs only)."""
        return self.peak_flops_per_cg * self.num_core_groups

    @property
    def chip_bandwidth(self) -> float:
        """Aggregate DDR3 bandwidth of the chip in bytes/second (144 GB/s)."""
        return self.ddr_peak_bandwidth * self.num_core_groups

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert CPE cycles to seconds."""
        return cycles / self.clock_hz

    def seconds_to_cycles(self, seconds: float) -> float:
        """Convert seconds to CPE cycles."""
        return seconds * self.clock_hz

    def shrunk(self, mesh_size: int) -> "SW26010Spec":
        """Return a copy with a smaller CPE mesh (for tests and Fig. 3)."""
        if mesh_size < 1:
            raise ValueError(f"mesh_size must be >= 1, got {mesh_size}")
        return SW26010Spec(
            num_core_groups=self.num_core_groups,
            mesh_size=mesh_size,
            clock_hz=self.clock_hz,
            vector_lanes=self.vector_lanes,
            flops_per_cycle=self.flops_per_cycle,
            ldm_bytes=self.ldm_bytes,
            vector_registers=self.vector_registers,
            ldm_bandwidth=self.ldm_bandwidth,
            gload_bandwidth=self.gload_bandwidth,
            ddr_peak_bandwidth=self.ddr_peak_bandwidth,
            memory_bytes=self.memory_bytes,
            bus_packet_bytes=self.bus_packet_bytes,
            transfer_buffer_depth=self.transfer_buffer_depth,
            load_latency=self.load_latency,
            fma_latency=self.fma_latency,
            double_bytes=self.double_bytes,
            dma_alignment=self.dma_alignment,
        )


#: The canonical full-size SW26010.
DEFAULT_SPEC = SW26010Spec()


#: Table II of the paper: measured DMA bandwidth (GB/s) on one CG as a
#: function of the per-CPE contiguous block size in bytes.  ``get`` is
#: memory -> LDM, ``put`` is LDM -> memory.
TABLE_II_DMA_BANDWIDTH: Dict[int, Tuple[float, float]] = {
    32: (4.31, 2.56),
    64: (9.00, 9.20),
    128: (17.25, 18.83),
    192: (17.94, 19.82),
    256: (22.44, 25.80),
    384: (22.88, 24.67),
    512: (27.42, 30.34),
    576: (25.96, 28.91),
    640: (29.05, 32.00),
    1024: (29.79, 33.44),
    2048: (31.32, 35.19),
    4096: (32.05, 36.01),
}
