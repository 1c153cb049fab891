"""Opcode table and instruction value type for the CPE pipelines.

Opcode semantics and placement follow Section VI-A of the paper:

* floating-point / vector ops -> ``P0`` only;
* loads, stores, register communication, control transfer -> ``P1`` only;
* scalar integer ops -> either pipeline.

Latencies follow Section VI-B: loads take 4 cycles, ``vfmad`` takes 7 cycles
(both fully pipelined).  The compare feeding a branch is modeled with a
2-cycle latency, and branches issue alone — together these reproduce the
paper's cycle counts for both the original (26 cycles/iteration) and the
reordered (17 cycles/iteration) GEMM inner loop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


class PipelineClass(enum.Enum):
    """Which execution pipeline(s) may handle an opcode."""

    P0 = "P0"
    P1 = "P1"
    EITHER = "either"


@dataclass(frozen=True)
class OpSpec:
    """Static properties of one opcode."""

    name: str
    pipeline: PipelineClass
    latency: int
    #: Double-precision flops performed (vector FMA: 4 lanes x 2).
    flops: int = 0
    is_load: bool = False
    is_store: bool = False
    is_branch: bool = False
    #: Register-communication op (put/get over the mesh buses).
    is_comm: bool = False


def _spec(name, pipeline, latency, **kw) -> OpSpec:
    return OpSpec(name=name, pipeline=pipeline, latency=latency, **kw)


#: The opcode table.  Names mirror the Sunway assembly mnemonics used in the
#: paper (vload/vldde/vfmad/putr/getr/cmp/bnw ...).
OPCODES: Dict[str, OpSpec] = {
    # -- P0: floating point / vector arithmetic ---------------------------
    "vfmad": _spec("vfmad", PipelineClass.P0, 7, flops=8),
    "vmuld": _spec("vmuld", PipelineClass.P0, 7, flops=4),
    "vaddd": _spec("vaddd", PipelineClass.P0, 7, flops=4),
    "fmad": _spec("fmad", PipelineClass.P0, 7, flops=2),
    # -- P1: memory --------------------------------------------------------
    "vload": _spec("vload", PipelineClass.P1, 4, is_load=True),
    "vldde": _spec("vldde", PipelineClass.P1, 4, is_load=True),  # splat load
    "ldw": _spec("ldw", PipelineClass.P1, 4, is_load=True),
    "vstore": _spec("vstore", PipelineClass.P1, 1, is_store=True),
    "stw": _spec("stw", PipelineClass.P1, 1, is_store=True),
    # -- P1: register communication (Section V) ----------------------------
    "putr": _spec("putr", PipelineClass.P1, 1, is_comm=True),
    "putc": _spec("putc", PipelineClass.P1, 1, is_comm=True),
    "getr": _spec("getr", PipelineClass.P1, 4, is_load=True, is_comm=True),
    "getc": _spec("getc", PipelineClass.P1, 4, is_load=True, is_comm=True),
    # -- P1: control transfer ----------------------------------------------
    "bnw": _spec("bnw", PipelineClass.P1, 1, is_branch=True),
    "beq": _spec("beq", PipelineClass.P1, 1, is_branch=True),
    "jmp": _spec("jmp", PipelineClass.P1, 1, is_branch=True),
    # -- integer scalar (either pipeline) -----------------------------------
    "cmp": _spec("cmp", PipelineClass.EITHER, 2),
    "addl": _spec("addl", PipelineClass.EITHER, 1),
    "ldi": _spec("ldi", PipelineClass.EITHER, 1),
    "nop": _spec("nop", PipelineClass.EITHER, 1),
}


@dataclass(frozen=True)
class Instruction:
    """One machine instruction.

    ``dst`` / ``srcs`` name abstract registers; for loads, ``addr`` carries a
    ``(array, index)`` pair the functional interpreter dereferences.  ``tag``
    is a free-form label used by tests and reports (e.g. which loop iteration
    emitted the instruction).
    """

    op: str
    dst: Optional[str] = None
    srcs: Tuple[str, ...] = ()
    addr: Optional[Tuple[str, Tuple]] = None
    imm: Optional[float] = None
    tag: str = ""

    def __post_init__(self) -> None:
        if self.op not in OPCODES:
            raise ValueError(f"unknown opcode {self.op!r}")

    @property
    def spec(self) -> OpSpec:
        return OPCODES[self.op]

    @property
    def reads(self) -> Tuple[str, ...]:
        """Registers this instruction reads.

        ``vfmad dst, a, b`` both reads and writes ``dst`` (it accumulates),
        which is why chained FMAs on one accumulator have a RAW dependence —
        the fact the reordering passes must respect.
        """
        if self.op in ("vfmad", "fmad") and self.dst is not None:
            return self.srcs + (self.dst,)
        return self.srcs

    @property
    def writes(self) -> Tuple[str, ...]:
        return (self.dst,) if self.dst is not None else ()

    def render(self) -> str:
        """Assembly-like textual form."""
        parts = [self.op]
        operands = []
        if self.dst:
            operands.append(self.dst)
        operands.extend(self.srcs)
        if self.addr is not None:
            array, index = self.addr
            operands.append(f"{array}{list(index)}")
        if self.imm is not None:
            operands.append(f"#{self.imm:g}")
        if operands:
            parts.append(", ".join(operands))
        text = " ".join(parts)
        if self.tag:
            text += f"    ; {self.tag}"
        return text

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
