"""The CPE vector register file.

Each CPE has 32 architecturally-visible 256-bit vector registers (4 doubles
each).  Register-blocking plans (Section V-B) must keep their working set —
``rbB`` input vectors, ``rbNo`` filter vectors, ``rbB x rbNo`` accumulators —
inside this file; the simulator enforces that, which is what bounds the
feasible (rbB, rbNo) choices of Eq. 5.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.common.errors import RegisterPressureError, SimulationError
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC


class VectorRegisterFile:
    """32 x 256-bit vector registers, each holding 4 doubles."""

    def __init__(self, spec: SW26010Spec = DEFAULT_SPEC):
        self.spec = spec
        self.num_registers = spec.vector_registers
        self.lanes = spec.vector_lanes
        self._regs = np.zeros((self.num_registers, self.lanes), dtype=np.float64)
        self._named: Dict[str, int] = {}
        self._next_free = 0

    def allocate(self, name: str) -> int:
        """Assign the next free register to ``name`` and return its index."""
        if name in self._named:
            raise SimulationError(f"register name {name!r} already in use")
        if self._next_free >= self.num_registers:
            raise RegisterPressureError(
                f"out of vector registers allocating {name!r} "
                f"({self.num_registers} available)"
            )
        index = self._next_free
        self._named[name] = index
        self._next_free += 1
        return index

    def allocate_block(self, prefix: str, count: int) -> list:
        """Allocate ``count`` registers named ``prefix[0..count)``."""
        return [self.allocate(f"{prefix}[{i}]") for i in range(count)]

    def free_all(self) -> None:
        self._named.clear()
        self._next_free = 0
        self._regs[...] = 0.0

    def index_of(self, name: str) -> int:
        try:
            return self._named[name]
        except KeyError:
            raise SimulationError(f"register {name!r} is not allocated") from None

    @property
    def registers_used(self) -> int:
        return self._next_free

    @property
    def registers_free(self) -> int:
        return self.num_registers - self._next_free

    def read(self, reg) -> np.ndarray:
        """Read a vector register (by index or name); returns a copy."""
        return self._regs[self._resolve(reg)].copy()

    def write(self, reg, value) -> None:
        """Write a full 4-lane vector to a register."""
        value = np.asarray(value, dtype=np.float64)
        if value.shape != (self.lanes,):
            raise SimulationError(
                f"vector register write must be shape ({self.lanes},), "
                f"got {value.shape}"
            )
        self._regs[self._resolve(reg)] = value

    def splat(self, reg, scalar: float) -> None:
        """Replicate a scalar across all lanes (the ``vldde`` extend-load)."""
        self._regs[self._resolve(reg)] = float(scalar)

    def fma(self, dst, a, b) -> None:
        """dst += a * b, element-wise across lanes (the ``vfmad`` op)."""
        self._regs[self._resolve(dst)] += (
            self._regs[self._resolve(a)] * self._regs[self._resolve(b)]
        )

    def _resolve(self, reg) -> int:
        if isinstance(reg, str):
            return self.index_of(reg)
        index = int(reg)
        if not 0 <= index < self.num_registers:
            raise SimulationError(
                f"register index {index} out of range [0, {self.num_registers})"
            )
        return index
