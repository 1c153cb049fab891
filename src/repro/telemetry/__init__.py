"""``repro.telemetry`` — counters, span tracing, drift reports.

The observability layer of the simulator (see ``docs/observability.md``):

* :class:`~repro.telemetry.counters.Counters` — hardware-event counters
  the hw/core/tune layers increment (bytes moved, bus traffic, flops, LDM
  high water, plan-cache traffic, fault/fallback events);
* :class:`~repro.telemetry.spans.SpanTracer` — nested wall-clock spans
  plus simulated-timeline intervals, exported as Chrome ``trace_event``
  JSON for ``chrome://tracing`` / Perfetto;
* :mod:`~repro.telemetry.drift` — model-vs-measured drift reports
  (imported lazily here to avoid a cycle with ``repro.core``).

Enable a session either explicitly (``telemetry=`` on ``SwDNNHandle``,
``ConvolutionEngine``, ``evaluate_chip``, ``run_sweep``...) or ambiently::

    from repro.telemetry import Telemetry, use_telemetry

    telem = Telemetry()
    with use_telemetry(telem):
        handle.convolution_forward(x, w)
    print(telem.counters.render())
    telem.tracer.write("trace.json")

The disabled default (:data:`NULL_TELEMETRY`) is a pair of no-op
singletons, so uninstrumented runs pay only dead method calls.
"""

from repro.telemetry.counters import Counters, NullCounters, NULL_COUNTERS
from repro.telemetry.flight import (
    FlightEvent,
    FlightRecorder,
    NullFlightRecorder,
    NULL_FLIGHT,
    load_flight_dump,
)
from repro.telemetry.metrics import (
    Gauge,
    LogHistogram,
    Metrics,
    NullMetrics,
    NULL_METRICS,
    TimeSeries,
    metrics_snapshot,
    parse_openmetrics,
    to_openmetrics,
)
from repro.telemetry.session import (
    NullTelemetry,
    NULL_TELEMETRY,
    Telemetry,
    current_telemetry,
    use_telemetry,
)
from repro.telemetry.spans import (
    NullSpanTracer,
    NULL_TRACER,
    PID_SIM,
    PID_WALL,
    Span,
    SpanTracer,
)
__all__ = [
    "Counters",
    "NullCounters",
    "NULL_COUNTERS",
    "FlightEvent",
    "FlightRecorder",
    "NullFlightRecorder",
    "NULL_FLIGHT",
    "load_flight_dump",
    "Gauge",
    "LogHistogram",
    "Metrics",
    "NullMetrics",
    "NULL_METRICS",
    "TimeSeries",
    "metrics_snapshot",
    "parse_openmetrics",
    "to_openmetrics",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "Telemetry",
    "current_telemetry",
    "use_telemetry",
    "NullSpanTracer",
    "NULL_TRACER",
    "PID_SIM",
    "PID_WALL",
    "Span",
    "SpanTracer",
    # lazy (see __getattr__): DriftReport, DriftRow, drift_report
    "DriftReport",
    "DriftRow",
    "drift_report",
    # lazy (see __getattr__): the communication-lower-bound oracle
    "OracleReport",
    "OracleRow",
    "demmel_dinh_bound_bytes",
    "oracle_report",
]

_LAZY_DRIFT = ("DriftReport", "DriftRow", "drift_report", "DEFAULT_DRIFT_THRESHOLD")
_LAZY_ORACLE = (
    "OracleReport",
    "OracleRow",
    "demmel_dinh_bound_bytes",
    "oracle_report",
    "DEFAULT_ATTAINMENT_THRESHOLD",
)


def __getattr__(name: str):
    # repro.telemetry.drift imports repro.core, which imports this package;
    # deferring the import breaks the cycle while keeping the flat API.
    if name in _LAZY_DRIFT:
        from repro.telemetry import drift as _drift

        return getattr(_drift, name)
    if name in _LAZY_ORACLE:
        from repro.telemetry import oracle as _oracle

        return getattr(_oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
