"""Main (DDR3) memory of a core group.

The simulator keeps tensors as named NumPy arrays living "in main memory".
CPEs reach that memory through the :class:`repro.hw.dma.DMAEngine` into
LDM (the REG-LDM-MEM path of Section III-D), which is the path every
optimized plan uses.  The direct ``gload`` path (8 GB/s per CG, 0.32% of
peak) is priced analytically by
:meth:`repro.perf.model.PerformanceModel.direct_memory`.

The memory accounts the bytes moved so experiments can report effective
bandwidths and arithmetic intensity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.common.errors import SimulationError
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC


@dataclass
class MemoryStats:
    """Byte/time accounting for one memory port."""

    bytes_read: int = 0
    bytes_written: int = 0
    transfers: int = 0
    busy_seconds: float = 0.0

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written

    def reset(self) -> None:
        self.bytes_read = 0
        self.bytes_written = 0
        self.transfers = 0
        self.busy_seconds = 0.0


class MainMemory:
    """The 8 GB DDR3 memory attached to one core group.

    Tensors are registered by name.  Registration enforces the capacity
    limit so workloads that could not fit on the real machine are rejected
    rather than silently simulated.
    """

    def __init__(self, spec: SW26010Spec = DEFAULT_SPEC):
        self.spec = spec
        self._tensors: Dict[str, np.ndarray] = {}
        self._bytes_used = 0
        self.stats = MemoryStats()

    @property
    def bytes_used(self) -> int:
        return self._bytes_used

    @property
    def bytes_free(self) -> int:
        return self.spec.memory_bytes - self._bytes_used

    def register(self, name: str, array: np.ndarray) -> np.ndarray:
        """Place ``array`` in main memory under ``name``.

        Returns the stored array (stored by reference; the simulator treats
        the NumPy buffer as the memory contents).
        """
        if name in self._tensors:
            raise SimulationError(f"tensor {name!r} already registered")
        self._check_fits(name, array.nbytes)
        self._tensors[name] = array
        self._bytes_used += array.nbytes
        return array

    def allocate(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """Allocate a zeroed tensor in main memory.

        Capacity is checked before the host buffer exists, so a tensor the
        machine could not hold is rejected without allocating it.
        """
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        self._check_fits(name, nbytes)
        return self.register(name, np.zeros(shape, dtype=dtype))

    def _check_fits(self, name: str, nbytes: int) -> None:
        if nbytes > self.bytes_free:
            raise SimulationError(
                f"tensor {name!r} needs {nbytes} bytes but only "
                f"{self.bytes_free} bytes of main memory are free"
            )

    def free(self, name: str) -> None:
        """Remove a tensor from main memory."""
        array = self._tensors.pop(name, None)
        if array is None:
            raise SimulationError(f"tensor {name!r} is not registered")
        self._bytes_used -= array.nbytes

    def get(self, name: str) -> np.ndarray:
        """Look up a tensor by name."""
        try:
            return self._tensors[name]
        except KeyError:
            raise SimulationError(f"tensor {name!r} is not registered") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def names(self):
        """Iterate over registered tensor names."""
        return iter(self._tensors)
