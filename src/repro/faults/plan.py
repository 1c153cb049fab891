"""Deterministic fault injection for the architectural simulator.

A real Sunway job-level run does not see the pristine SW26010 the paper
benchmarks: DMA bandwidth dips under memory pressure, CPEs get fenced off by
the resource manager, register-bus transfers stall, and LDM cells take the
occasional bit-flip.  :class:`FaultPlan` injects exactly those conditions
into the simulator — *deterministically*, from a seed — so robustness paths
(fallback ladders, replans, retries) can be exercised and regression-tested
with bit-identical behaviour across runs.

Design:

* :class:`FaultSpec` is the immutable configuration: which faults, at what
  rates/severities.  ``FaultSpec()`` is the healthy machine (all rates zero,
  bandwidth factor 1.0) and injects nothing.
* :class:`FaultPlan` owns the per-subsystem RNG streams (derived with
  :func:`repro.common.rng.derive_rng`, so subsystems cannot perturb each
  other's draws) and the :class:`FaultLedger` recording every injected
  event.  Two plans built from the same spec observe identical fault
  sequences when the simulation issues identical operation sequences.
* Hardware components take an optional ``fault_plan``; ``None`` (the
  default everywhere) bypasses injection entirely, so the healthy paths are
  byte-for-byte unchanged.

Injected conditions raise the typed errors of :mod:`repro.common.errors`
(:class:`~repro.common.errors.DMATimeoutError`,
:class:`~repro.common.errors.CPEFaultError`,
:class:`~repro.common.errors.BusStallError`,
:class:`~repro.common.errors.ECCError`) — all catchable as
:class:`~repro.common.errors.HardwareFaultError` and ultimately
:class:`~repro.common.errors.ReproError`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.common.errors import (
    BusStallError,
    CPEFaultError,
    DMATimeoutError,
    ECCError,
)
from repro.common.rng import DEFAULT_SEED, derive_rng
from repro.telemetry import current_telemetry


@dataclass(frozen=True)
class FaultSpec:
    """Immutable description of the degraded machine to simulate.

    Rates are per-operation probabilities in ``[0, 1]``; the default spec is
    a healthy machine that injects nothing.
    """

    #: Base seed; every fault stream derives from it.
    seed: int = DEFAULT_SEED
    #: Multiplier on Table II DMA bandwidth (1.0 = healthy, 0.5 = halved).
    dma_bandwidth_factor: float = 1.0
    #: Per-transfer probability that a DMA descriptor hangs (times out).
    dma_timeout_rate: float = 0.0
    #: Explicitly fenced CPE coordinates, e.g. ``((0, 3), (5, 5))``.
    fenced_cpes: Tuple[Tuple[int, int], ...] = ()
    #: Number of additional CPEs to fence at seeded-random coordinates.
    num_random_fenced: int = 0
    #: Per-operation probability that a register-bus transfer stalls.
    bus_stall_rate: float = 0.0
    #: Per-operation probability that a put/get pair is dropped on the bus.
    bus_drop_rate: float = 0.0
    #: Per-read probability of a *corrected* (logged-only) LDM ECC event.
    ecc_corrected_rate: float = 0.0
    #: Per-read probability of an *uncorrectable* LDM ECC event (raises).
    ecc_uncorrectable_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.dma_bandwidth_factor <= 1.0:
            raise ValueError(
                f"dma_bandwidth_factor must be in (0, 1], got {self.dma_bandwidth_factor}"
            )
        for name in (
            "dma_timeout_rate",
            "bus_stall_rate",
            "bus_drop_rate",
            "ecc_corrected_rate",
            "ecc_uncorrectable_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.num_random_fenced < 0:
            raise ValueError(
                f"num_random_fenced must be non-negative, got {self.num_random_fenced}"
            )

    @property
    def healthy(self) -> bool:
        """True when this spec injects nothing at all."""
        return (
            self.dma_bandwidth_factor == 1.0
            and self.dma_timeout_rate == 0.0
            and not self.fenced_cpes
            and self.num_random_fenced == 0
            and self.bus_stall_rate == 0.0
            and self.bus_drop_rate == 0.0
            and self.ecc_corrected_rate == 0.0
            and self.ecc_uncorrectable_rate == 0.0
        )

    def derive(self, *keys: object) -> "FaultSpec":
        """Same fault rates, child seed — for per-job plans in a sweep.

        Deriving per configuration keeps a parallel sweep deterministic
        regardless of worker scheduling: each job's fault stream depends
        only on the base seed and the job's key, never on pool order.
        """
        child = derive_rng(self.seed, "faults.derive", *keys)
        new_seed = int(child.integers(0, 2**31 - 1))
        return FaultSpec(
            seed=new_seed,
            dma_bandwidth_factor=self.dma_bandwidth_factor,
            dma_timeout_rate=self.dma_timeout_rate,
            fenced_cpes=self.fenced_cpes,
            num_random_fenced=self.num_random_fenced,
            bus_stall_rate=self.bus_stall_rate,
            bus_drop_rate=self.bus_drop_rate,
            ecc_corrected_rate=self.ecc_corrected_rate,
            ecc_uncorrectable_rate=self.ecc_uncorrectable_rate,
        )


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in the ledger.

    ``seq`` is a per-ledger sequence number (no wall-clock timestamps —
    the ledger must be bit-identical across same-seed runs).
    """

    seq: int
    subsystem: str
    kind: str
    detail: str

    def describe(self) -> str:
        return f"[{self.seq:04d}] {self.subsystem}/{self.kind}: {self.detail}"


class FaultLedger:
    """Append-only record of every injected fault event in one run.

    Thread-safe: one plan's ledger is shared by every component of the
    simulated machine, and a serving pool injects faults from multiple
    worker threads at once — the sequence-number assignment and append
    run under a lock so ``seq`` values stay unique and dense.
    """

    def __init__(self) -> None:
        self._events: List[FaultEvent] = []
        self._lock = threading.Lock()

    def record(self, subsystem: str, kind: str, detail: str) -> FaultEvent:
        with self._lock:
            event = FaultEvent(
                seq=len(self._events), subsystem=subsystem, kind=kind, detail=detail
            )
            self._events.append(event)
        # Ambient (per-call) lookup: ledgers are owned by fault plans built
        # long before any telemetry session exists, so construction-time
        # capture would miss every event.
        current_telemetry().counters.add(f"faults.{subsystem}.{kind}")
        return event

    @property
    def events(self) -> List[FaultEvent]:
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def counts(self) -> Dict[str, int]:
        """Event tally per ``subsystem/kind`` key."""
        tally: Dict[str, int] = {}
        for event in self.events:
            key = f"{event.subsystem}/{event.kind}"
            tally[key] = tally.get(key, 0) + 1
        return tally

    def extend(self, events: List[FaultEvent]) -> None:
        """Merge foreign events (e.g. from sweep workers), renumbering."""
        for event in events:
            self.record(event.subsystem, event.kind, event.detail)

    def render(self) -> str:
        """Human-readable ledger listing, one line per event."""
        if not self._events:
            return "fault ledger: no events"
        lines = [f"fault ledger: {len(self._events)} event(s)"]
        lines.extend(event.describe() for event in self._events)
        return "\n".join(lines)

    def to_jsonable(self) -> List[Dict[str, object]]:
        return [
            {
                "seq": e.seq,
                "subsystem": e.subsystem,
                "kind": e.kind,
                "detail": e.detail,
            }
            for e in self._events
        ]


class FaultPlan:
    """Seeded, ledgered fault injector shared by the simulator components.

    One plan describes one run of one simulated machine; hardware
    components call the ``maybe_*`` hooks at their injection points and the
    plan decides — from its derived RNG streams — whether the fault fires.
    Standing conditions (bandwidth degradation, fenced CPEs) are recorded
    once; stochastic events are recorded each time they fire.
    """

    def __init__(self, spec: Optional[FaultSpec] = None, ledger: Optional[FaultLedger] = None):
        self.spec = spec if spec is not None else FaultSpec()
        self.ledger = ledger if ledger is not None else FaultLedger()
        seed = self.spec.seed
        self._dma_rng = derive_rng(seed, "faults.dma")
        self._bus_rng = derive_rng(seed, "faults.bus")
        self._ecc_rng = derive_rng(seed, "faults.ecc")
        self._fence_rng = derive_rng(seed, "faults.fence")
        self._fenced_cache: Dict[int, FrozenSet[Tuple[int, int]]] = {}
        if self.spec.dma_bandwidth_factor < 1.0:
            self.ledger.record(
                "dma",
                "degraded-bandwidth",
                f"DMA bandwidth derated to "
                f"{self.spec.dma_bandwidth_factor:.2f}x of Table II",
            )

    # -- DMA ---------------------------------------------------------------

    @property
    def dma_bandwidth_factor(self) -> float:
        return self.spec.dma_bandwidth_factor

    def maybe_dma_timeout(self, nbytes: int, direction: str, tensor: str = "") -> None:
        """Raise :class:`DMATimeoutError` if this transfer's descriptor hangs."""
        if self.spec.dma_timeout_rate <= 0.0:
            return
        if self._dma_rng.random() < self.spec.dma_timeout_rate:
            detail = (
                f"dma_{direction} of {nbytes} bytes"
                + (f" ({tensor})" if tensor else "")
                + " timed out"
            )
            self.ledger.record("dma", "timeout", detail)
            raise DMATimeoutError(detail)

    # -- CPE fencing -------------------------------------------------------

    def fenced(self, mesh_size: int) -> FrozenSet[Tuple[int, int]]:
        """The fenced CPE set for a ``mesh_size`` x ``mesh_size`` mesh.

        Explicit coordinates outside the mesh are ignored (they belong to a
        larger machine); random fences are drawn once per mesh size and
        memoized so every component sees the same degraded topology.
        """
        cached = self._fenced_cache.get(mesh_size)
        if cached is not None:
            return cached
        fenced = {
            (r, c)
            for r, c in self.spec.fenced_cpes
            if 0 <= r < mesh_size and 0 <= c < mesh_size
        }
        candidates = [
            (r, c)
            for r in range(mesh_size)
            for c in range(mesh_size)
            if (r, c) not in fenced
        ]
        extra = min(self.spec.num_random_fenced, len(candidates))
        if extra:
            picks = self._fence_rng.choice(len(candidates), size=extra, replace=False)
            fenced.update(candidates[int(i)] for i in sorted(picks))
        result = frozenset(fenced)
        self._fenced_cache[mesh_size] = result
        for coords in sorted(result):
            self.ledger.record(
                "cpe", "fenced", f"CPE{coords} fenced off the {mesh_size}x{mesh_size} mesh"
            )
        return result

    def check_cpe(self, coords: Tuple[int, int], mesh_size: int, what: str) -> None:
        """Raise :class:`CPEFaultError` if ``coords`` is fenced."""
        if coords in self.fenced(mesh_size):
            detail = f"CPE{coords} is fenced; cannot {what}"
            self.ledger.record("cpe", "fault", detail)
            raise CPEFaultError(detail)

    # -- register buses ----------------------------------------------------

    def maybe_bus_fault(
        self, src: Tuple[int, int], dst: str, nbytes: int
    ) -> None:
        """Raise :class:`BusStallError` on an injected stall or dropped pair.

        A *stall* models the producer-consumer protocol wedging (the real
        hardware blocks forever); a *drop* models a put whose packet never
        arrives, which surfaces at the matching ``get``.  Both are fatal to
        the schedule in flight, so both raise; they are distinguished in
        the ledger.
        """
        if self.spec.bus_stall_rate > 0.0 and self._bus_rng.random() < self.spec.bus_stall_rate:
            detail = f"register-bus transfer CPE{src} -> {dst} ({nbytes} B) stalled"
            self.ledger.record("bus", "stall", detail)
            raise BusStallError(detail)
        if self.spec.bus_drop_rate > 0.0 and self._bus_rng.random() < self.spec.bus_drop_rate:
            detail = f"put/get pair CPE{src} -> {dst} ({nbytes} B) dropped"
            self.ledger.record("bus", "drop", detail)
            raise BusStallError(detail)

    # -- LDM ECC -----------------------------------------------------------

    def maybe_ecc(self, buffer_name: str, nbytes: int) -> None:
        """Inject an LDM ECC event on a buffer read.

        Single-bit (corrected) events are recorded and execution continues
        — ECC repaired the word.  Double-bit (uncorrectable) events raise
        :class:`ECCError`.
        """
        if self.spec.ecc_corrected_rate > 0.0 and self._ecc_rng.random() < self.spec.ecc_corrected_rate:
            self.ledger.record(
                "ldm",
                "ecc-corrected",
                f"single-bit flip in LDM buffer {buffer_name!r} ({nbytes} B) corrected",
            )
        if self.spec.ecc_uncorrectable_rate > 0.0 and self._ecc_rng.random() < self.spec.ecc_uncorrectable_rate:
            detail = (
                f"uncorrectable double-bit flip in LDM buffer {buffer_name!r} "
                f"({nbytes} B)"
            )
            self.ledger.record("ldm", "ecc-uncorrectable", detail)
            raise ECCError(detail)
