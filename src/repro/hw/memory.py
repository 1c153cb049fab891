"""Main (DDR3) memory of a core group, and the gload direct-access port.

The simulator keeps tensors as named NumPy arrays living "in main memory".
CPEs may reach that memory two ways, mirroring Section III-D of the paper:

* through the :class:`repro.hw.dma.DMAEngine` into LDM (the REG-LDM-MEM
  path), which is the path every optimized plan uses; or
* directly, element-by-element, through :class:`GloadPort` — the ``gload``
  instruction path, whose physical bandwidth is only 8 GB/s per CG and which
  the paper shows yields 0.32% of peak.

Both ports account the bytes they move so experiments can report effective
bandwidths and arithmetic intensity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

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


class GloadPort:
    """Direct CPE access to main memory via ``gload``/``gstore``.

    The paper's first design point (middle column of Fig. 2): no data
    sharing, an 8 GB/s physical interface shared by the 64 CPEs of a CG.
    """

    def __init__(self, memory: MainMemory, spec: Optional[SW26010Spec] = None):
        self.memory = memory
        self.spec = spec or memory.spec
        self.stats = MemoryStats()

    def gload(self, name: str, index) -> np.ndarray:
        """Read an element (or slice) directly from main memory."""
        tensor = self.memory.get(name)
        value = tensor[index]
        nbytes = int(np.asarray(value).nbytes)
        self._account(read=nbytes, write=0)
        return value

    def gstore(self, name: str, index, value) -> None:
        """Write an element (or slice) directly to main memory."""
        tensor = self.memory.get(name)
        tensor[index] = value
        nbytes = int(np.asarray(value).nbytes)
        self._account(read=0, write=nbytes)

    def _account(self, read: int, write: int) -> None:
        moved = read + write
        self.stats.bytes_read += read
        self.stats.bytes_written += write
        self.stats.transfers += 1
        self.stats.busy_seconds += moved / self.spec.gload_bandwidth
