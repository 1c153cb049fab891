"""Flight recorder: a bounded ring of typed events with causal IDs.

A chaos-serve report says *how many* requests were shed, retried, or
hedged; the flight recorder answers *why this one*.  Every interesting
transition in the serve and cluster layers drops one typed event into a
bounded ring — request admitted, batch formed, attempt failed, breaker
opened, engine quarantined, cluster bucket reduced — each stamped with
the causal IDs it belongs to (``request=``, ``requests=[...]``,
``batch=``, ``step=``, ``bucket=``).  After an anomaly, the ring is all
that is needed to reconstruct the chain:

    request 17 submitted -> batch 4 formed [17, 18] -> attempt 0 failed
    (DMATimeoutError) -> breaker closed->open -> batch 4 retry 1 ->
    attempt 1 ok -> request 17 completed

:meth:`FlightRecorder.chain` walks exactly that: the events carrying a
request's ID, the batch-level events of every batch that carried it, and
the global breaker/health transitions that fired inside the request's
lifetime window.

The ring is bounded (default :data:`DEFAULT_CAPACITY` events) and
overwrite-oldest, so a long-running server pays O(capacity) memory and
the dump always holds the most recent history — the part an audit needs.
:data:`NULL_FLIGHT` is the shared disabled recorder (empty ``__slots__``,
every method a no-op), mirroring ``NULL_COUNTERS``/``NULL_TRACER``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List

from repro.common.schema import FLIGHT_SCHEMA, validate

#: Default bounded ring length.
DEFAULT_CAPACITY = 4096

#: Event kinds with no per-request scoping: included in a causal chain
#: whenever they fire inside the request's lifetime window.
GLOBAL_KINDS = (
    "breaker.transition",
    "engine.degraded",
    "engine.quarantined",
    "engine.rebuilt",
    "fleet.scale",
)

#: The typed vocabulary (documented in docs/observability.md).  record()
#: accepts only these so a typo'd kind fails a test, not an audit.
EVENT_KINDS = frozenset(
    GLOBAL_KINDS
    + (
        # fleet front door (request-scoped: which chip, and why)
        "route.decide",
        # serve request lifecycle
        "request.submit",
        "request.shed",
        "request.reject",
        "request.deadline",
        "request.complete",
        "request.error",
        # batch lifecycle (requests=[...] carries membership)
        "batch.form",
        "batch.attempt",
        "batch.retry",
        "batch.hedge",
        "batch.fail",
        "batch.ok",
        # cluster lifecycle
        "cluster.step",
        "cluster.allreduce",
        "cluster.fault",
    )
)


@dataclass(frozen=True)
class FlightEvent:
    """One recorded transition: sequence number, timestamp, kind, IDs."""

    seq: int
    t_us: float
    kind: str
    args: Dict[str, Any] = field(default_factory=dict)

    def involves_request(self, request_id: int) -> bool:
        """Does this event carry ``request_id`` in its causal IDs?"""
        if self.args.get("request") == request_id:
            return True
        requests = self.args.get("requests")
        return isinstance(requests, (list, tuple)) and request_id in requests

    def as_dict(self) -> Dict[str, Any]:
        return {"seq": self.seq, "t_us": self.t_us, "kind": self.kind,
                "args": dict(self.args)}

    def describe(self) -> str:
        args = " ".join(f"{k}={v}" for k, v in sorted(self.args.items()))
        return f"[{self.seq:>6}] {self.t_us / 1e3:>10.3f}ms {self.kind} {args}"


class FlightRecorder:
    """Enabled recorder: bounded, thread-safe, overwrite-oldest ring."""

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"flight capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: Deque[FlightEvent] = deque(maxlen=capacity)
        self._seq = 0
        self._epoch = time.perf_counter()

    def record(self, kind: str, **args: Any) -> None:
        """Append one typed event; oldest events fall off a full ring."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown flight event kind {kind!r}")
        now_us = (time.perf_counter() - self._epoch) * 1e6
        with self._lock:
            self._ring.append(FlightEvent(self._seq, now_us, kind, args))
            self._seq += 1

    # -- reads ---------------------------------------------------------------

    @property
    def recorded(self) -> int:
        """Total events ever recorded (>= len when the ring wrapped)."""
        return self._seq

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._seq - len(self._ring)

    def events(self) -> List[FlightEvent]:
        with self._lock:
            return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def __bool__(self) -> bool:
        return True

    def chain(self, request_id: int) -> List[FlightEvent]:
        """The causal event chain of one request, in ring order.

        Three layers stitched together: (1) events explicitly scoped to
        the request (``request=`` or membership in a ``requests`` list),
        (2) batch-level events of every batch that ever carried the
        request, and (3) global breaker/health transitions that fired
        within the request's first-to-last event window — the "what was
        the system doing to me" context a shed audit needs.
        """
        with self._lock:
            events = list(self._ring)
        direct = [e for e in events if e.involves_request(request_id)]
        if not direct:
            return []
        batches = {
            e.args["batch"] for e in direct if "batch" in e.args
        }
        t_lo = min(e.t_us for e in direct)
        t_hi = max(e.t_us for e in direct)
        chain: List[FlightEvent] = []
        for event in events:
            if event.involves_request(request_id):
                chain.append(event)
            elif event.args.get("batch") in batches:
                chain.append(event)
            elif event.kind in GLOBAL_KINDS and t_lo <= event.t_us <= t_hi:
                chain.append(event)
        return chain

    def explain(self, request_id: int) -> str:
        """Rendered causal chain (one event per line) for one request."""
        chain = self.chain(request_id)
        if not chain:
            return f"request {request_id}: no flight events in the ring"
        lines = [f"request {request_id}: {len(chain)} event(s)"]
        lines.extend(f"  {event.describe()}" for event in chain)
        return "\n".join(lines)

    # -- export --------------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "schema": FLIGHT_SCHEMA,
                "capacity": self.capacity,
                "recorded": self._seq,
                "dropped": self._seq - len(self._ring),
                "events": [event.as_dict() for event in self._ring],
            }

    def dump(self, path: str) -> str:
        """Write the ring as JSON to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=1, sort_keys=True)
        return path


def load_flight_dump(path: str) -> List[FlightEvent]:
    """Re-hydrate a :meth:`FlightRecorder.dump` file into events.

    Raises ``ValueError`` listing every violation of the flight spec.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    errors = validate(payload)
    if not errors and payload.get("schema") != FLIGHT_SCHEMA:
        errors = [f"schema: expected {FLIGHT_SCHEMA!r}, got {payload.get('schema')!r}"]
    if errors:
        raise ValueError(f"{path}: not a flight dump: " + "; ".join(errors))
    return [
        FlightEvent(
            seq=e["seq"], t_us=e["t_us"], kind=e["kind"], args=e.get("args", {})
        )
        for e in payload["events"]
    ]


class NullFlightRecorder:
    """Disabled recorder: every call a no-op, zero storage."""

    __slots__ = ()

    enabled = False
    capacity = 0
    recorded = 0
    dropped = 0

    def record(self, kind: str, **args: Any) -> None:
        pass

    def events(self) -> List[FlightEvent]:
        return []

    def chain(self, request_id: int) -> List[FlightEvent]:
        return []

    def explain(self, request_id: int) -> str:
        return "flight recorder: disabled"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": FLIGHT_SCHEMA,
            "capacity": 0,
            "recorded": 0,
            "dropped": 0,
            "events": [],
        }

    def dump(self, path: str) -> str:
        raise RuntimeError("cannot dump a disabled (null) flight recorder")

    def __len__(self) -> int:
        return 0

    def __bool__(self) -> bool:
        return False


#: The process-wide disabled recorder.
NULL_FLIGHT = NullFlightRecorder()
