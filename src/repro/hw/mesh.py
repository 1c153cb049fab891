"""The 8x8 CPE mesh and its register-communication fabric.

Section V-A of the paper: the mesh has 8 *row communication buses* and 8
*column communication buses*.  Register-level communication is a pair of
``put``/``get`` operations — the sender pushes a 256-bit register into the
*transfer buffer* of a receiver on its own row or column, and the receiver
pops it into its general-purpose register file.  Broadcast/multicast of
256-bit items along a bus is supported in hardware.  A producer-consumer
protocol bounds how many packets may be in flight per receiver.

The simulator enforces the two hardware constraints that shape the paper's
data-distribution plan (Fig. 3):

1. a CPE can only ``put`` to CPEs on the *same row or same column*;
2. a receiver's transfer buffer has finite depth — a ``put`` into a full
   buffer or a ``get`` from an empty one is a protocol error (the real
   hardware would stall or deadlock; the paper's schedules are statically
   correct, so the simulator treats violations as bugs).

Payloads are NumPy arrays; bus occupancy is accounted in 32-byte (256-bit)
packets so experiments can report bus traffic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Tuple

import numpy as np

from repro.common.errors import BusProtocolError, BusStallError
from repro.hw.cpe import CPE
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.telemetry import current_telemetry


@dataclass
class BusStats:
    """Packet accounting for one bus."""

    packets: int = 0
    bytes: int = 0
    operations: int = 0


class RegisterBus:
    """One row or column communication bus (accounting only).

    The functional data movement happens through transfer buffers; the bus
    object records how many 256-bit packets crossed it, which the performance
    model and the ablation benches use.
    """

    def __init__(self, kind: str, index: int, packet_bytes: int, telemetry=None):
        if kind not in ("row", "col"):
            raise ValueError(f"bus kind must be 'row' or 'col', got {kind!r}")
        self.kind = kind
        self.index = index
        self.packet_bytes = packet_bytes
        self.telemetry = telemetry if telemetry is not None else current_telemetry()
        self.stats = BusStats()

    def account(self, nbytes: int, receivers: int) -> None:
        """Record one put of ``nbytes`` replicated to ``receivers`` targets.

        A broadcast occupies the bus once regardless of receiver count (the
        hardware multicasts), so packets are charged per payload, not per
        receiver.
        """
        packets = -(-nbytes // self.packet_bytes)
        self.stats.packets += packets
        self.stats.bytes += nbytes
        self.stats.operations += 1
        counters = self.telemetry.counters
        counters.add("mesh.bus_packets", packets)
        counters.add("mesh.bus_bytes", nbytes)
        counters.add("mesh.bus_operations", 1)

    def account_bulk(self, nbytes: int, receivers: int, operations: int) -> None:
        """Record ``operations`` equal-sized puts in one call.

        Equivalent to calling :meth:`account` ``operations`` times — the
        fast-path GEMM uses it to charge a whole schedule's traffic without
        walking the per-step broadcast loops.
        """
        if operations < 0:
            raise ValueError(f"operations must be non-negative, got {operations}")
        packets = -(-nbytes // self.packet_bytes)
        self.stats.packets += packets * operations
        self.stats.bytes += nbytes * operations
        self.stats.operations += operations
        counters = self.telemetry.counters
        counters.add("mesh.bus_packets", packets * operations)
        counters.add("mesh.bus_bytes", nbytes * operations)
        counters.add("mesh.bus_operations", operations)


class TransferBuffer:
    """The receive-side FIFO of one CPE (producer-consumer protocol)."""

    def __init__(self, owner: Tuple[int, int], depth: int):
        self.owner = owner
        self.depth = depth
        self._fifo: Deque[np.ndarray] = deque()
        self.high_water = 0

    def push(self, payload: np.ndarray) -> None:
        if len(self._fifo) >= self.depth:
            raise BusProtocolError(
                f"transfer buffer of CPE{self.owner} overflowed "
                f"(depth {self.depth}); the schedule must consume with 'get' "
                f"before more puts arrive"
            )
        self._fifo.append(payload)
        self.high_water = max(self.high_water, len(self._fifo))

    def pop(self) -> np.ndarray:
        if not self._fifo:
            raise BusProtocolError(
                f"get on empty transfer buffer of CPE{self.owner}; the "
                f"schedule consumed more packets than were put"
            )
        return self._fifo.popleft()

    def __len__(self) -> int:
        return len(self._fifo)


class CPEMesh:
    """A square mesh of CPEs with row/column register-communication buses.

    With a :class:`repro.faults.FaultPlan` attached, the mesh models a
    degraded CG: CPEs the plan fences are disabled (touching one raises
    :class:`~repro.common.errors.CPEFaultError`), and bus operations may
    stall or drop per the plan's seeded rates
    (:class:`~repro.common.errors.BusStallError`).
    """

    def __init__(self, spec: SW26010Spec = DEFAULT_SPEC, fault_plan=None, telemetry=None):
        self.spec = spec
        self.fault_plan = fault_plan
        self.telemetry = telemetry if telemetry is not None else current_telemetry()
        n = spec.mesh_size
        self.size = n
        self.cpes: List[List[CPE]] = [
            [
                CPE(
                    row=r,
                    col=c,
                    spec=spec,
                    fault_plan=fault_plan,
                    telemetry=self.telemetry,
                )
                for c in range(n)
            ]
            for r in range(n)
        ]
        if fault_plan is not None:
            for coords in fault_plan.fenced(n):
                self.cpes[coords[0]][coords[1]].fence()
        self._buffers: Dict[Tuple[int, int], TransferBuffer] = {
            (r, c): TransferBuffer((r, c), spec.transfer_buffer_depth)
            for r in range(n)
            for c in range(n)
        }
        self.row_buses = [
            RegisterBus("row", r, spec.bus_packet_bytes, telemetry=self.telemetry)
            for r in range(n)
        ]
        self.col_buses = [
            RegisterBus("col", c, spec.bus_packet_bytes, telemetry=self.telemetry)
            for c in range(n)
        ]

    def _maybe_bus_fault(self, src: Tuple[int, int], target: str, nbytes: int) -> None:
        """Fault-plan bus injection with stall accounting.

        A stall raised by the plan is counted (``mesh.bus_stalls``) before
        propagating, so counter reports from a chaos run show how often the
        bus misbehaved even when a retry or fallback absorbed the error.
        """
        try:
            self.fault_plan.maybe_bus_fault(src, target, nbytes)
        except BusStallError:
            self.telemetry.counters.add("mesh.bus_stalls")
            raise

    # -- topology ---------------------------------------------------------

    def cpe(self, row: int, col: int) -> CPE:
        """Look up a CPE by mesh coordinates."""
        self._check(row, col)
        return self.cpes[row][col]

    def __iter__(self):
        for row in self.cpes:
            yield from row

    def _check(self, row: int, col: int) -> None:
        if not (0 <= row < self.size and 0 <= col < self.size):
            raise BusProtocolError(
                f"CPE({row},{col}) outside {self.size}x{self.size} mesh"
            )
        self.cpes[row][col].check_available()

    # -- register communication ------------------------------------------

    def put(
        self, src: Tuple[int, int], dst: Tuple[int, int], payload: np.ndarray
    ) -> None:
        """Point-to-point put: src pushes ``payload`` to dst's transfer buffer.

        Only legal when src and dst share a row (row bus) or a column
        (column bus) — the mesh has no diagonal channels.
        """
        self._check(*src)
        self._check(*dst)
        if src == dst:
            raise BusProtocolError(f"CPE{src} cannot put to itself")
        payload = np.asarray(payload)
        if self.fault_plan is not None:
            self._maybe_bus_fault(src, f"CPE{dst}", payload.nbytes)
        if src[0] == dst[0]:
            self.row_buses[src[0]].account(payload.nbytes, receivers=1)
        elif src[1] == dst[1]:
            self.col_buses[src[1]].account(payload.nbytes, receivers=1)
        else:
            raise BusProtocolError(
                f"CPE{src} cannot reach CPE{dst}: register communication is "
                f"restricted to the same row or column"
            )
        self._buffers[dst].push(payload.copy())

    def row_broadcast(self, src: Tuple[int, int], payload: np.ndarray) -> None:
        """Broadcast along the sender's row to every *other* CPE on that row.

        Models the ``vload+putr`` / ``vldde+putr`` primitives of Section V-C.
        """
        self._check(*src)
        payload = np.asarray(payload)
        row = src[0]
        if self.fault_plan is not None:
            self._maybe_bus_fault(src, f"row {row} broadcast", payload.nbytes)
        receivers = [(row, c) for c in range(self.size) if c != src[1]]
        for dst in receivers:
            self.cpes[dst[0]][dst[1]].check_available()
        self.row_buses[row].account(payload.nbytes, receivers=len(receivers))
        for dst in receivers:
            self._buffers[dst].push(payload.copy())

    def col_broadcast(self, src: Tuple[int, int], payload: np.ndarray) -> None:
        """Broadcast along the sender's column (the ``putc`` path)."""
        self._check(*src)
        payload = np.asarray(payload)
        col = src[1]
        if self.fault_plan is not None:
            self._maybe_bus_fault(src, f"col {col} broadcast", payload.nbytes)
        receivers = [(r, col) for r in range(self.size) if r != src[0]]
        for dst in receivers:
            self.cpes[dst[0]][dst[1]].check_available()
        self.col_buses[col].account(payload.nbytes, receivers=len(receivers))
        for dst in receivers:
            self._buffers[dst].push(payload.copy())

    def get(self, who: Tuple[int, int]) -> np.ndarray:
        """Pop the oldest packet from a CPE's transfer buffer (``getr/getc``)."""
        self._check(*who)
        return self._buffers[who].pop()

    def pending(self, who: Tuple[int, int]) -> int:
        """Number of packets waiting in a CPE's transfer buffer."""
        return len(self._buffers[who])

    def assert_drained(self) -> None:
        """Check that no packets were left unconsumed (schedule completeness)."""
        leftovers = {
            coords: len(buf) for coords, buf in self._buffers.items() if len(buf)
        }
        if leftovers:
            raise BusProtocolError(
                f"transfer buffers not drained at end of schedule: {leftovers}"
            )

    # -- accounting --------------------------------------------------------

    def total_bus_bytes(self) -> int:
        return sum(b.stats.bytes for b in self.row_buses + self.col_buses)

    def reset_stats(self) -> None:
        for bus in self.row_buses + self.col_buses:
            bus.stats = BusStats()
