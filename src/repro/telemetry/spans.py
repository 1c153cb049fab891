"""Nested timed spans with Chrome ``trace_event`` export.

Two timebases share one trace, on two synthetic "processes":

* **wall clock** (pid :data:`PID_WALL`) — host-side spans opened with
  :meth:`SpanTracer.span`: handle calls, planning, tuning, experiment
  sections.  Nesting is expressed by interval containment, exactly how
  ``chrome://tracing`` / Perfetto render complete events.
* **simulated time** (pid :data:`PID_SIM`) — intervals of the engine's
  double-buffered timeline recorded with :meth:`SpanTracer.record_sim`:
  per-tile DMA get, compute, DMA put, fused epilogue, shard windows.  Each
  track ("dma-get", "compute", "dma-put", ...) becomes one thread row.

``to_chrome_trace`` emits the JSON object format — ``{"traceEvents":
[...]}`` with complete ("ph": "X") events plus process/thread-name metadata
("ph": "M") — loadable directly in ``chrome://tracing`` or
https://ui.perfetto.dev.  Timestamps are microseconds, per the format.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List

#: Synthetic process ids for the two timebases.
PID_WALL = 1
PID_SIM = 2

#: tid assigned to host-side (wall clock) spans.
TID_HOST = 1


@dataclass(frozen=True)
class Span:
    """One completed interval: Chrome 'complete event' fields."""

    name: str
    cat: str
    ts_us: float  # start, microseconds in the trace's timebase
    dur_us: float
    pid: int
    tid: str
    args: Dict[str, Any] = field(default_factory=dict)


class _SpanHandle:
    """Context manager recording one wall-clock span on exit."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_start")

    def __init__(self, tracer: "SpanTracer", name: str, cat: str, args: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> "_SpanHandle":
        self._start = self._tracer._now_us()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = self._tracer._now_us()
        if exc_type is not None:
            self._args = dict(self._args, error=exc_type.__name__)
        self._tracer._emit(
            Span(
                name=self._name,
                cat=self._cat,
                ts_us=self._start,
                dur_us=max(0.0, end - self._start),
                pid=PID_WALL,
                tid=TID_HOST,
                args=self._args,
            )
        )
        return False


class _NullSpanHandle:
    """Reusable no-op context manager for the disabled tracer."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpanHandle()


class SpanTracer:
    """Enabled tracer: records wall and simulated-time spans."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._epoch = time.perf_counter()
        #: named tracks in first-seen order -> the pid they render under.
        self._tracks: Dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def _now_us(self) -> float:
        return (time.perf_counter() - self._epoch) * 1e6

    def now_us(self) -> float:
        """Microseconds since this tracer's epoch (its wall timebase).

        Public so callers that record spans retroactively (e.g. the serve
        worker stamping a request's enqueue -> batch -> execute -> split
        stages after the batch completes) can capture timestamps cheaply
        and :meth:`record_wall` them later.
        """
        return self._now_us()

    def _emit(self, span: Span) -> None:
        self.spans.append(span)

    def span(self, name: str, cat: str = "host", **args: Any) -> _SpanHandle:
        """Open a nested wall-clock span; use as a context manager."""
        return _SpanHandle(self, name, cat, args)

    def record_sim(
        self,
        name: str,
        start_seconds: float,
        end_seconds: float,
        track: str = "sim",
        cat: str = "sim",
        **args: Any,
    ) -> None:
        """Record one interval of the *simulated* timeline (seconds in)."""
        if end_seconds < start_seconds:
            raise ValueError(
                f"span {name!r} ends before it starts "
                f"({end_seconds} < {start_seconds})"
            )
        self._tracks.setdefault(track, PID_SIM)
        self._emit(
            Span(
                name=name,
                cat=cat,
                ts_us=start_seconds * 1e6,
                dur_us=(end_seconds - start_seconds) * 1e6,
                pid=PID_SIM,
                tid=track,
                args=args,
            )
        )

    def record_wall(
        self,
        name: str,
        start_us: float,
        end_us: float,
        track: str = "serve",
        cat: str = "serve",
        **args: Any,
    ) -> None:
        """Record one completed *wall-clock* interval retroactively.

        Timestamps are microseconds in this tracer's own timebase (take
        them with :meth:`now_us`).  Unlike :meth:`span`, which needs a
        ``with`` block open for the interval's duration, this records an
        interval whose endpoints were captured earlier — how the serve
        worker emits per-request enqueue/batch/execute/split spans once
        the batch has completed.  Each ``track`` becomes its own thread
        row under the wall-clock process.
        """
        if end_us < start_us:
            raise ValueError(
                f"span {name!r} ends before it starts ({end_us} < {start_us})"
            )
        self._tracks.setdefault(track, PID_WALL)
        self._emit(
            Span(
                name=name,
                cat=cat,
                ts_us=max(0.0, start_us),
                dur_us=end_us - start_us,
                pid=PID_WALL,
                tid=track,
                args=args,
            )
        )

    # -- export ------------------------------------------------------------

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The trace as a Chrome ``trace_event`` JSON-object-format dict."""
        events: List[Dict[str, Any]] = [
            _metadata("process_name", PID_WALL, 0, {"name": "host (wall clock)"}),
            _metadata("process_name", PID_SIM, 0, {"name": "simulated timeline"}),
            _metadata("thread_name", PID_WALL, TID_HOST, {"name": "host"}),
        ]
        # Stable integer tids per named track, in first-seen order.  Wall
        # tracks start above TID_HOST so they never collide with the host
        # row; sim tracks keep their historical 1-based numbering.
        track_tids: Dict[str, int] = {}
        next_tid = {PID_WALL: TID_HOST + 1, PID_SIM: 1}
        for track, pid in self._tracks.items():
            track_tids[track] = next_tid[pid]
            next_tid[pid] += 1
            events.append(_metadata("thread_name", pid, track_tids[track], {"name": track}))
        for span in self.spans:
            tid = span.tid if isinstance(span.tid, int) else track_tids[span.tid]
            event: Dict[str, Any] = {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": span.ts_us,
                "dur": span.dur_us,
                "pid": span.pid,
                "tid": tid,
            }
            if span.args:
                event["args"] = span.args
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> str:
        """Write the Chrome trace JSON to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh, indent=1)
        return path

    def __len__(self) -> int:
        return len(self.spans)


class NullSpanTracer:
    """Disabled tracer: every call is a no-op, no spans are stored."""

    __slots__ = ()

    enabled = False
    spans: List[Span] = []

    def span(self, name: str, cat: str = "host", **args: Any) -> _NullSpanHandle:
        return _NULL_SPAN

    def record_sim(self, *args: Any, **kwargs: Any) -> None:
        pass

    def record_wall(self, *args: Any, **kwargs: Any) -> None:
        pass

    def now_us(self) -> float:
        return 0.0

    def to_chrome_trace(self) -> Dict[str, Any]:
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def write(self, path: str) -> str:
        raise RuntimeError("cannot export a disabled (null) tracer")

    def __len__(self) -> int:
        return 0


#: The process-wide disabled tracer.
NULL_TRACER = NullSpanTracer()


def _metadata(name: str, pid: int, tid: int, args: Dict[str, Any]) -> Dict[str, Any]:
    return {"name": name, "ph": "M", "pid": pid, "tid": tid, "args": args}
