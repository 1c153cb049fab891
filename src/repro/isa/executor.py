"""Register-level kernel executor: run Programs on real CPE resources.

The :class:`~repro.isa.program.Interpreter` validates *semantics* against
an abstract machine state; this executor goes one level lower and runs a
kernel on an actual :class:`~repro.hw.cpe.CPE`: every abstract register
name is allocated in the 32-entry vector register file (so a kernel that
needs 33 registers fails the way it would on silicon), loads read from the
CPE's LDM buffers, and FMAs run through the register file's lane
arithmetic.  It is the piece that makes "this kernel fits the machine" a
checked property rather than a comment.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.common.errors import SimulationError
from repro.hw.cpe import CPE
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.isa.instructions import Instruction
from repro.isa.program import Program


class KernelExecutor:
    """Executes a Program on one CPE's register file and LDM."""

    def __init__(self, cpe: Optional[CPE] = None, spec: SW26010Spec = DEFAULT_SPEC):
        self.cpe = cpe if cpe is not None else CPE(row=0, col=0, spec=spec)
        self.spec = self.cpe.spec
        self._arrays: Dict[str, Dict[Tuple, np.ndarray]] = {}

    # -- data staging --------------------------------------------------------

    def stage(self, array: str, index: Tuple, value) -> None:
        """Place a value in the CPE's LDM under (array, index).

        Each staged element occupies one 32-byte vector slot in the LDM
        (allocated through the real allocator, so staging too much data
        raises :class:`~repro.common.errors.LDMOverflowError`).
        """
        value = np.asarray(value, dtype=np.float64)
        slot_name = f"{array}{list(index)}"
        if slot_name not in self.cpe.ldm:
            buf = self.cpe.ldm.alloc(slot_name, (self.spec.vector_lanes,))
        else:
            buf = self.cpe.ldm.get(slot_name)
        lanes = np.zeros(self.spec.vector_lanes)
        flat = np.atleast_1d(value)
        lanes[: flat.size] = flat[: self.spec.vector_lanes]
        buf.write(slice(None), lanes)
        self._arrays.setdefault(array, {})[index] = lanes

    def read_back(self, array: str, index: Tuple) -> np.ndarray:
        """Read a stored result from LDM."""
        slot_name = f"{array}{list(index)}"
        return self.cpe.ldm.get(slot_name).read().copy()

    # -- execution ---------------------------------------------------------------

    def _reg(self, name: str) -> str:
        if name not in self.cpe.registers._named:
            self.cpe.registers.allocate(name)
        return name

    def run(self, program: Program) -> "KernelExecutor":
        """Execute the program; returns self for chaining."""
        for instr in program:
            self.step(instr)
        return self

    def step(self, instr: Instruction) -> None:
        rf = self.cpe.registers
        op = instr.op
        if op in ("vload", "ldw", "getr", "getc"):
            array, index = self._addr(instr)
            slot = f"{array}{list(index)}"
            buf = self.cpe.ldm.get(slot)
            rf.write(self._reg(instr.dst), buf.read())
            self.cpe.count_ldm_load(buf.nbytes)
        elif op == "vldde":
            array, index = self._addr(instr)
            slot = f"{array}{list(index)}"
            buf = self.cpe.ldm.get(slot)
            rf.splat(self._reg(instr.dst), float(buf.read()[0]))
            self.cpe.count_ldm_load(self.spec.double_bytes)
        elif op in ("vstore", "stw", "putr", "putc"):
            array, index = self._addr(instr)
            self.stage(array, index, rf.read(self._reg(instr.srcs[0])))
            self.cpe.count_ldm_store(self.spec.bus_packet_bytes)
        elif op in ("vfmad", "fmad"):
            a, b = instr.srcs
            rf.fma(self._reg(instr.dst), self._reg(a), self._reg(b))
            self.cpe.count_fma(self.spec.vector_lanes)
        elif op == "vmuld":
            a, b = instr.srcs
            rf.write(self._reg(instr.dst), rf.read(self._reg(a)) * rf.read(self._reg(b)))
        elif op == "vaddd":
            a, b = instr.srcs
            rf.write(self._reg(instr.dst), rf.read(self._reg(a)) + rf.read(self._reg(b)))
        elif op == "cmp":
            value = rf.read(self._reg(instr.srcs[0])) if instr.srcs else 0.0
            threshold = instr.imm if instr.imm is not None else 0.0
            rf.splat(self._reg(instr.dst), float(np.all(value < threshold)))
        elif op == "addl":
            base = rf.read(self._reg(instr.srcs[0])) if instr.srcs else 0.0
            rf.write(self._reg(instr.dst), np.asarray(base) + (instr.imm or 0.0))
        elif op == "ldi":
            rf.splat(self._reg(instr.dst), instr.imm or 0.0)
        elif op in ("bnw", "beq", "jmp", "nop"):
            pass
        else:  # pragma: no cover - OPCODES and this dispatch stay in sync
            raise SimulationError(f"executor has no semantics for {op!r}")

    @staticmethod
    def _addr(instr: Instruction) -> Tuple[str, Tuple]:
        if instr.addr is None:
            raise SimulationError(f"{instr.op} needs an address")
        return instr.addr

    # -- accounting ----------------------------------------------------------------

    @property
    def registers_used(self) -> int:
        return self.cpe.registers.registers_used

    @property
    def flops_executed(self) -> int:
        return self.cpe.stats.flops
