"""Shared pieces of the workloads: run context, results, latency summaries."""

from __future__ import annotations

import math
import resource
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from swbench.tracing import Tracer


@dataclass
class Context:
    """What the command line hands a workload."""

    seed: int
    seconds: float
    tiny: bool
    t_start: float  # perf_counter() at the top of run.py: set-up starts here
    tracer: Optional[Tracer] = None
    #: Only build what the timed region needs, report set-up time, stop.
    setup_only: bool = False


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Result:
    """Everything one workload run measured (a set-up-only run: ``setup_s``)."""

    setup_s: float
    wall_s: float = 0.0  # the timed region
    ops_per_s: float = 0.0
    p50_ms: float = 0.0
    p90_ms: float = 0.0
    op_count: int = 0  # latency samples behind p50/p90 (offered operations)
    attempted: int = 0
    failed: int = 0
    checks: List[Check] = field(default_factory=list)
    #: Deterministic sim results and exact counts: equal for equal seeds,
    #: traced or not.
    ledger: Dict[str, Any] = field(default_factory=dict)
    #: Per-layer values the workload computes itself (the rest come from
    #: the tracer); every name here must be a per_layer metric.
    layers: Dict[str, float] = field(default_factory=dict)
    #: Thread whose layer self time should account for the timed wall.
    busy_thread: str = "MainThread"
    notes: List[str] = field(default_factory=list)


def counters_session():
    """A telemetry session with the program's counters on, nothing else."""
    from repro.telemetry import Telemetry
    from repro.telemetry.flight import NULL_FLIGHT
    from repro.telemetry.metrics import NULL_METRICS
    from repro.telemetry.spans import NULL_TRACER

    return Telemetry(tracer=NULL_TRACER, metrics=NULL_METRICS, flight=NULL_FLIGHT)


def derive_seed(seed: int, stream: int) -> int:
    """An independent integer seed per input stream of one workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile; 0.0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def offered_latencies(
    answered_ms: Sequence[float], failed: int, limit_ms: float
) -> Tuple[float, float]:
    """(p50 of answered ops, p90 of offered ops) in ms.

    A failed operation counts as ten times the latency limit, i.e. as
    missing it, so failures can only raise the p90.
    """
    offered = list(answered_ms) + [10.0 * limit_ms] * failed
    return percentile(answered_ms, 50.0), percentile(offered, 90.0)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values) if values else 0.0
