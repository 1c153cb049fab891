"""Architectural model of the SW26010 many-core processor.

The SW26010 (Fig. 1 of the paper) consists of four *core groups* (CGs); each
CG has one management processing element (MPE) and 64 computing processing
elements (CPEs) arranged as an 8x8 mesh.  Each CPE owns a 64 KB user-managed
Local Directive Memory (LDM) and a vector register file; the mesh has 8 row
and 8 column register-communication buses; each CG has a DMA engine to its own
8 GB DDR3 memory, and the four CGs are joined by a NoC.

This package models each of those components closely enough that the paper's
optimization decisions (blocking sizes, data distribution, bus schedules,
instruction reordering) can be expressed and *executed*: the mesh really moves
NumPy data between simulated CPEs, the LDM allocator really rejects plans that
overflow 64 KB, and the DMA engine charges time according to the empirical
bandwidth curve the paper measures in Table II.
"""

from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.hw.memory import MainMemory
from repro.hw.dma import DMAEngine, DMATransfer, DMABandwidthModel
from repro.hw.ldm import LDM, LDMAllocator, LDMBuffer
from repro.hw.regfile import VectorRegisterFile
from repro.hw.mesh import CPEMesh, RegisterBus, TransferBuffer
from repro.hw.cpe import CPE
from repro.hw.chip import CoreGroup

__all__ = [
    "SW26010Spec",
    "DEFAULT_SPEC",
    "MainMemory",
    "DMAEngine",
    "DMATransfer",
    "DMABandwidthModel",
    "LDM",
    "LDMAllocator",
    "LDMBuffer",
    "VectorRegisterFile",
    "CPEMesh",
    "RegisterBus",
    "TransferBuffer",
    "CPE",
    "CoreGroup",
]
