"""Streaming metrics: log-bucketed histograms, gauges, time-series rings.

The counters registry (:mod:`repro.telemetry.counters`) answers "how much,
in total"; this module answers the two questions a serve or train run
raises that totals cannot: *what is the distribution* (p50/p90/p99/max of
request latency, batch size) and *how did a signal evolve over time*
(queue depth during a brownout, exposed communication per cluster step).

Three primitives, all bounded-memory and deterministic:

* :class:`LogHistogram` — a streaming histogram over geometric buckets
  (ratio :data:`BUCKET_GROWTH` per bucket, ~9% relative resolution).  No
  samples are stored; quantiles are read from the bucket counts, so the
  histogram's answer for a given observation multiset never depends on
  arrival order and costs O(buckets) memory.
* :class:`Gauge` — last-written value plus min/max/update count.
* :class:`TimeSeries` — a bounded ring of ``(t, value)`` samples.  The
  timebase is the caller's: the serve layer samples on the wall clock,
  the cluster on the simulated clock — both land in the same registry.

The :class:`Metrics` registry bundles them under dotted names, mirroring
the ``Counters``/``NullCounters`` split: :data:`NULL_METRICS` is a shared
no-op sink with empty ``__slots__`` so the disabled path allocates
nothing.

Export paths:

* :func:`to_openmetrics` — Prometheus/OpenMetrics text exposition
  (counters as ``counter``, gauges as ``gauge``, histograms as
  ``summary`` with quantile labels), parseable by
  :func:`parse_openmetrics`;
* :func:`metrics_snapshot` — a JSON document with the full bucket-level
  state (tag ``repro.metrics/v1``, checked by
  :func:`repro.common.schema.validate`);
* :meth:`Metrics.render_dashboard` — the terminal dashboard behind
  ``python -m repro metrics``.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.common.schema import METRICS_SCHEMA

Number = Union[int, float]

#: Geometric bucket growth: 2^(1/8) per bucket (~9% relative resolution).
BUCKET_GROWTH = 2.0 ** 0.125

#: Quantiles the exposition and dashboard report.
QUANTILES = (0.5, 0.9, 0.99)

#: Default bounded length of one time series ring.
DEFAULT_SERIES_CAPACITY = 1024

_LOG_GROWTH = math.log(BUCKET_GROWTH)


def bucket_index(value: float) -> int:
    """The geometric bucket a positive value falls into.

    Bucket ``i`` covers ``[GROWTH**i, GROWTH**(i+1))``; indices are
    negative for values below 1.  Computed from ``log`` and floored, so
    the mapping is a pure function of the value — two runs observing the
    same multiset build identical histograms.
    """
    if value <= 0:
        raise ValueError(f"bucket_index needs a positive value, got {value}")
    # Guard the boundary: floating log can land an exact power a hair low.
    i = math.floor(math.log(value) / _LOG_GROWTH + 1e-9)
    return int(i)


def bucket_bounds(index: int) -> Tuple[float, float]:
    """The ``[lo, hi)`` value range of bucket ``index``."""
    return (BUCKET_GROWTH ** index, BUCKET_GROWTH ** (index + 1))


class LogHistogram:
    """Streaming log-bucketed histogram: quantiles without stored samples.

    Non-positive observations land in a dedicated zero bucket (queue
    depths and latencies are occasionally exactly 0); quantile reads
    treat them as 0.0.  Quantiles are resolved to the geometric midpoint
    of the covering bucket, clamped to the observed ``[min, max]`` — so
    the reported p99 is within one bucket width (~9%) of the exact
    order statistic, deterministically.
    """

    __slots__ = ("count", "total", "min", "max", "zero_count", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.zero_count = 0
        self._buckets: Dict[int, int] = {}

    def observe(self, value: Number) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self.zero_count += 1
            return
        i = bucket_index(value)
        self._buckets[i] = self._buckets.get(i, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (q in [0, 1]) from the bucket counts."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        # Rank of the target order statistic, 1-based, ceil'd so q=0.5
        # over 10 samples lands on the 5th.
        rank = max(1, math.ceil(q * self.count))
        if rank <= self.zero_count:
            return max(0.0, min(self.min, 0.0))
        cumulative = self.zero_count
        for i in sorted(self._buckets):
            cumulative += self._buckets[i]
            if cumulative >= rank:
                lo, hi = bucket_bounds(i)
                mid = math.sqrt(lo * hi)  # geometric midpoint
                return min(max(mid, self.min), self.max)
        return self.max  # pragma: no cover - cumulative always reaches count

    @property
    def p50(self) -> float:
        return self.quantile(0.5)

    @property
    def p90(self) -> float:
        return self.quantile(0.9)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "zero_count": self.zero_count,
            "buckets": {str(i): self._buckets[i] for i in sorted(self._buckets)},
        }


class Gauge:
    """Last-written value with min/max envelope and update count."""

    __slots__ = ("value", "min", "max", "updates")

    def __init__(self) -> None:
        self.value = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.updates = 0

    def set(self, value: Number) -> None:
        value = float(value)
        self.value = value
        self.updates += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def as_dict(self) -> Dict[str, Any]:
        return {
            "value": self.value,
            "min": self.min if self.updates else 0.0,
            "max": self.max if self.updates else 0.0,
            "updates": self.updates,
        }


class TimeSeries:
    """Bounded ring of ``(t, value)`` samples in the caller's timebase."""

    __slots__ = ("capacity", "recorded", "_points")

    def __init__(self, capacity: int = DEFAULT_SERIES_CAPACITY):
        if capacity < 1:
            raise ValueError(f"series capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.recorded = 0
        self._points: Deque[Tuple[float, float]] = deque(maxlen=capacity)

    def record(self, t: Number, value: Number) -> None:
        self.recorded += 1
        self._points.append((float(t), float(value)))

    @property
    def dropped(self) -> int:
        """Samples evicted by the ring bound (recorded - retained)."""
        return self.recorded - len(self._points)

    def points(self) -> List[Tuple[float, float]]:
        return list(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "points": [[t, v] for t, v in self._points],
        }


class Metrics:
    """Enabled metrics registry: histograms + gauges + time series.

    Thread-safe the same way :class:`~repro.telemetry.counters.Counters`
    is: serve worker threads and the submitting thread observe into one
    registry concurrently, so creation and mutation run under one lock.
    """

    __slots__ = ("_lock", "_histograms", "_gauges", "_series", "series_capacity")

    enabled = True

    def __init__(self, series_capacity: int = DEFAULT_SERIES_CAPACITY):
        self._lock = threading.Lock()
        self._histograms: Dict[str, LogHistogram] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._series: Dict[str, TimeSeries] = {}
        self.series_capacity = series_capacity

    # -- writes --------------------------------------------------------------

    def observe(self, name: str, value: Number) -> None:
        """Add one observation to histogram ``name`` (creating it)."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = LogHistogram()
            hist.observe(value)

    def set_gauge(self, name: str, value: Number) -> None:
        """Set gauge ``name`` to its current value."""
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge()
            gauge.set(value)

    def sample(self, name: str, t: Number, value: Number) -> None:
        """Append ``(t, value)`` to the bounded time series ``name``.

        ``t`` is in the caller's timebase (wall seconds for the serve
        layer, simulated seconds for the cluster) — the registry does not
        read any clock itself, which keeps replays deterministic.
        """
        with self._lock:
            series = self._series.get(name)
            if series is None:
                series = self._series[name] = TimeSeries(self.series_capacity)
            series.record(t, value)

    # -- reads ---------------------------------------------------------------

    def histogram(self, name: str) -> Optional[LogHistogram]:
        return self._histograms.get(name)

    def gauge(self, name: str) -> Optional[Gauge]:
        return self._gauges.get(name)

    def series(self, name: str) -> Optional[TimeSeries]:
        return self._series.get(name)

    def histogram_names(self) -> List[str]:
        return sorted(self._histograms)

    def gauge_names(self) -> List[str]:
        return sorted(self._gauges)

    def series_names(self) -> List[str]:
        return sorted(self._series)

    def __len__(self) -> int:
        return len(self._histograms) + len(self._gauges) + len(self._series)

    def __bool__(self) -> bool:
        return True

    def as_dict(self) -> Dict[str, Any]:
        """Full bucket-level state, sorted by name (JSON-ready)."""
        with self._lock:
            return {
                "histograms": {
                    k: self._histograms[k].as_dict()
                    for k in sorted(self._histograms)
                },
                "gauges": {
                    k: self._gauges[k].as_dict() for k in sorted(self._gauges)
                },
                "series": {
                    k: self._series[k].as_dict() for k in sorted(self._series)
                },
            }

    def reset(self) -> None:
        with self._lock:
            self._histograms.clear()
            self._gauges.clear()
            self._series.clear()

    # -- dashboard -----------------------------------------------------------

    def render_dashboard(self, width: int = 48) -> str:
        """Terminal dashboard: quantile table + per-series strip chart."""
        lines: List[str] = []
        snap = self.as_dict()
        hists = snap["histograms"]
        if hists:
            name_w = max(len(n) for n in hists)
            lines.append("histograms (log-bucketed, ~9% resolution)")
            header = (
                f"  {'name':<{name_w}}  {'count':>7}  {'mean':>9}  "
                f"{'p50':>9}  {'p90':>9}  {'p99':>9}  {'max':>9}"
            )
            lines.append(header)
            for name, h in hists.items():
                lines.append(
                    f"  {name:<{name_w}}  {h['count']:>7}  {h['mean']:>9.3f}  "
                    f"{h['p50']:>9.3f}  {h['p90']:>9.3f}  {h['p99']:>9.3f}  "
                    f"{h['max']:>9.3f}"
                )
        gauges = snap["gauges"]
        if gauges:
            if lines:
                lines.append("")
            name_w = max(len(n) for n in gauges)
            lines.append("gauges")
            for name, g in gauges.items():
                lines.append(
                    f"  {name:<{name_w}}  last {g['value']:>9.3f}  "
                    f"min {g['min']:>9.3f}  max {g['max']:>9.3f}  "
                    f"({g['updates']} updates)"
                )
        for name, s in snap["series"].items():
            if lines:
                lines.append("")
            lines.append(
                f"time series {name} — {len(s['points'])} of {s['recorded']} "
                f"sample(s) retained (ring capacity {s['capacity']})"
            )
            lines.append(render_strip(s["points"], width=width))
        if not lines:
            return "metrics: (none recorded)"
        return "\n".join(lines)


def render_strip(
    points: Sequence[Sequence[float]], width: int = 48, height: int = 6
) -> str:
    """ASCII strip chart of a time series (time binned to ``width`` cols)."""
    if not points:
        return "  (empty)"
    ts = [p[0] for p in points]
    vs = [p[1] for p in points]
    t_lo, t_hi = min(ts), max(ts)
    v_lo, v_hi = min(vs), max(vs)
    span_t = (t_hi - t_lo) or 1.0
    span_v = (v_hi - v_lo) or 1.0
    # Per-column max over the values that land in that time bin.
    columns: List[Optional[float]] = [None] * width
    for t, v in zip(ts, vs):
        col = min(width - 1, int((t - t_lo) / span_t * width))
        if columns[col] is None or v > columns[col]:
            columns[col] = v
    rows: List[str] = []
    for level in range(height, 0, -1):
        cells = []
        threshold = v_lo + span_v * (level - 0.5) / height
        for v in columns:
            if v is None:
                cells.append(" ")
            elif v >= threshold:
                cells.append("#")
            elif level == 1:
                cells.append(".")  # sampled, below every threshold
            else:
                cells.append(" ")
        label = v_hi if level == height else (v_lo if level == 1 else None)
        prefix = f"{label:>9.2f} |" if label is not None else f"{'':>9} |"
        rows.append("  " + prefix + "".join(cells))
    rows.append(
        "  " + " " * 9 + "+" + "-" * width
        + f"  t in [{t_lo:.4f}, {t_hi:.4f}]"
    )
    return "\n".join(rows)


class NullMetrics:
    """Disabled sink: same interface, every mutation a no-op, zero storage."""

    __slots__ = ()

    enabled = False

    def observe(self, name: str, value: Number) -> None:
        pass

    def set_gauge(self, name: str, value: Number) -> None:
        pass

    def sample(self, name: str, t: Number, value: Number) -> None:
        pass

    def histogram(self, name: str) -> None:
        return None

    def gauge(self, name: str) -> None:
        return None

    def series(self, name: str) -> None:
        return None

    def histogram_names(self) -> List[str]:
        return []

    def gauge_names(self) -> List[str]:
        return []

    def series_names(self) -> List[str]:
        return []

    def __len__(self) -> int:
        return 0

    def __bool__(self) -> bool:
        return False

    def as_dict(self) -> Dict[str, Any]:
        return {"histograms": {}, "gauges": {}, "series": {}}

    def reset(self) -> None:
        pass

    def render_dashboard(self, width: int = 48) -> str:
        return "metrics: disabled"


#: The process-wide disabled sink (mirrors NULL_COUNTERS / NULL_TRACER).
NULL_METRICS = NullMetrics()


# ---------------------------------------------------------------------------
# OpenMetrics / Prometheus text exposition
# ---------------------------------------------------------------------------


def metric_name(dotted: str) -> str:
    """``serve.latency_ms`` -> ``repro_serve_latency_ms`` (spec-legal)."""
    cleaned = "".join(
        c if (c.isalnum() or c == "_") else "_" for c in dotted
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return f"repro_{cleaned}"


def _fmt(value: Number) -> str:
    if isinstance(value, int) or (
        isinstance(value, float) and value.is_integer()
    ):
        return str(int(value))
    return repr(float(value))


def to_openmetrics(metrics, counters=None) -> str:
    """Render the registry (plus optional counters) as OpenMetrics text.

    Counters become ``counter`` families (``_total`` suffix), gauges
    become ``gauge`` families, histograms become ``summary`` families
    with one ``{quantile="..."}`` sample per entry of :data:`QUANTILES`
    plus ``_sum``/``_count``.  Ends with the mandatory ``# EOF``.

    OpenMetrics forbids declaring the same family twice, but a dotted
    name can legitimately exist as both a counter and a gauge/histogram
    (``serve.queue_depth`` is a ``record_max`` counter *and* a sampled
    gauge): colliding counter families get a ``_counter`` suffix.
    """
    lines: List[str] = []
    snap = metrics.as_dict()
    taken = {metric_name(n) for n in snap["gauges"]}
    taken |= {metric_name(n) for n in snap["histograms"]}
    if counters is not None:
        for name, value in counters.as_dict().items():
            family = metric_name(name)
            if family in taken:
                family += "_counter"
            lines.append(f"# TYPE {family} counter")
            lines.append(f"{family}_total {_fmt(value)}")
    for name, g in snap["gauges"].items():
        family = metric_name(name)
        lines.append(f"# TYPE {family} gauge")
        lines.append(f"{family} {_fmt(g['value'])}")
    for name, h in snap["histograms"].items():
        family = metric_name(name)
        lines.append(f"# TYPE {family} summary")
        for q in QUANTILES:
            key = f"p{int(q * 100)}"
            lines.append(f'{family}{{quantile="{q}"}} {_fmt(h[key])}')
        lines.append(f"{family}_sum {_fmt(h['sum'])}")
        lines.append(f"{family}_count {_fmt(h['count'])}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def parse_openmetrics(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse the subset of OpenMetrics :func:`to_openmetrics` emits.

    Returns ``{family: {"type": ..., "samples": {sample_key: value}}}``
    where ``sample_key`` is the raw sample name plus any label string
    (e.g. ``repro_serve_latency_ms{quantile="0.99"}``).  Raises
    :class:`ValueError` on malformed lines — the smoke stage treats any
    parse failure as a hard error.
    """
    families: Dict[str, Dict[str, Any]] = {}
    saw_eof = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if saw_eof:
            raise ValueError(f"line {lineno}: content after # EOF")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE line {line!r}")
            _, _, family, kind = parts
            if kind not in ("counter", "gauge", "summary"):
                raise ValueError(f"line {lineno}: unknown type {kind!r}")
            families[family] = {"type": kind, "samples": {}}
            continue
        if line.startswith("#"):
            raise ValueError(f"line {lineno}: unexpected comment {line!r}")
        try:
            key, value_text = line.rsplit(" ", 1)
            value = float(value_text)
        except ValueError:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        base = key.split("{", 1)[0]
        family = base
        for suffix in ("_total", "_sum", "_count"):
            if base.endswith(suffix) and base[: -len(suffix)] in families:
                family = base[: -len(suffix)]
                break
        if family not in families:
            raise ValueError(f"line {lineno}: sample {key!r} has no TYPE line")
        families[family]["samples"][key] = value
    if not saw_eof:
        raise ValueError("missing # EOF terminator")
    return families


# ---------------------------------------------------------------------------
# JSON snapshot + exposition round-trip
# ---------------------------------------------------------------------------


def metrics_snapshot(metrics, counters=None) -> Dict[str, Any]:
    """One JSON document: schema tag + counters + full metrics state."""
    return {
        "schema": METRICS_SCHEMA,
        "counters": dict(counters.as_dict()) if counters is not None else {},
        **metrics.as_dict(),
    }


def exposition_matches_snapshot(text: str, payload: Dict[str, Any]) -> List[str]:
    """Cross-check the OpenMetrics text against the JSON snapshot.

    The smoke stage's round-trip: every counter/gauge/histogram in the
    snapshot must appear in the exposition with the same value (within
    float formatting), and vice versa nothing in the exposition may be
    absent from the snapshot.  Returns mismatch descriptions.
    """
    errors: List[str] = []
    try:
        families = parse_openmetrics(text)
    except ValueError as exc:
        return [f"exposition does not parse: {exc}"]
    expected_families = set()
    taken = {metric_name(n) for n in payload.get("gauges", {})}
    taken |= {metric_name(n) for n in payload.get("histograms", {})}
    for name, value in payload.get("counters", {}).items():
        family = metric_name(name)
        if family in taken:  # mirror to_openmetrics' collision rule
            family += "_counter"
        expected_families.add(family)
        got = families.get(family, {}).get("samples", {}).get(f"{family}_total")
        if got is None or not math.isclose(got, value, rel_tol=1e-9):
            errors.append(f"counter {name}: snapshot {value}, exposition {got}")
    for name, g in payload.get("gauges", {}).items():
        family = metric_name(name)
        expected_families.add(family)
        got = families.get(family, {}).get("samples", {}).get(family)
        if got is None or not math.isclose(got, g["value"], rel_tol=1e-9):
            errors.append(
                f"gauge {name}: snapshot {g['value']}, exposition {got}"
            )
    for name, h in payload.get("histograms", {}).items():
        family = metric_name(name)
        expected_families.add(family)
        samples = families.get(family, {}).get("samples", {})
        for q in QUANTILES:
            got = samples.get(f'{family}{{quantile="{q}"}}')
            want = h[f"p{int(q * 100)}"]
            if got is None or not math.isclose(got, want, rel_tol=1e-9):
                errors.append(
                    f"histogram {name} q={q}: snapshot {want}, exposition {got}"
                )
        got_count = samples.get(f"{family}_count")
        if got_count is None or int(got_count) != h["count"]:
            errors.append(
                f"histogram {name} count: snapshot {h['count']}, "
                f"exposition {got_count}"
            )
    for family in families:
        if family not in expected_families:
            errors.append(f"exposition family {family} absent from snapshot")
    return errors
