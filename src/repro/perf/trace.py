"""Text Gantt traces of a plan's double-buffered timeline.

Debugging a plan's overlap behaviour from aggregate numbers is blind work;
this module reads the engine's schedule for the (get, compute, put)
intervals of the first N tiles and renders them as an ASCII Gantt chart —
the visual the Section IV-A double-buffering argument is usually drawn as.

The tiles are the plan's tile program, priced by the engine exactly as the
timed evaluation prices them, and scheduled by
:meth:`repro.core.conv.ConvolutionEngine.tile_intervals` — the same
intervals the telemetry span exporter records, from the same schedule
arrays the timed evaluation folds down — so the Gantt chart, the timing
report and the Chrome trace can never disagree about the schedule.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.conv import ConvolutionEngine, TileInterval
from repro.core.plans import ConvPlan


def trace_plan(
    plan: Optional[ConvPlan] = None,
    max_tiles: int = 16,
    engine: Optional[ConvolutionEngine] = None,
) -> List[TileInterval]:
    """Record the first ``max_tiles`` tiles' scheduling intervals.

    Pass either a ``plan`` (traced on a fresh healthy engine) or an
    ``engine`` — the engine's own step costs are used, so a degraded
    engine (derated DMA, fenced CPEs replanned onto a smaller submesh)
    traces the timeline it would actually execute, not the full-mesh one.
    """
    if engine is None:
        if plan is None:
            raise ValueError("trace_plan needs a plan or an engine")
        engine = ConvolutionEngine(plan)
    return engine.tile_intervals(max_tiles)


def render_gantt(traces: List[TileInterval], width: int = 72) -> str:
    """ASCII Gantt: one row per tile, ``#`` get, ``=`` compute, ``>`` put."""
    if not traces:
        return "(no tiles)"
    t_end = max(t.put_end for t in traces)
    t_start = min(t.get_start for t in traces)
    span = max(t_end - t_start, 1e-12)

    def col(t: float) -> int:
        return int((t - t_start) / span * (width - 1))

    lines = [
        f"timeline of first {len(traces)} tiles "
        f"({span * 1e6:.1f} us span; #=DMA get, ==compute, >=DMA put)"
    ]
    for t in traces:
        row = [" "] * width
        for a, b, ch in (
            (t.get_start, t.get_end, "#"),
            (t.compute_start, t.compute_end, "="),
            (t.put_start, t.put_end, ">"),
        ):
            lo, hi = col(a), max(col(a), col(b) - 1)
            for x in range(lo, min(hi + 1, width)):
                row[x] = ch
        lines.append(f"tile {t.index:3d} |{''.join(row)}|")
    return "\n".join(lines)


def overlap_summary(traces: List[TileInterval]) -> float:
    """Fraction of compute windows that hid some later tile's DMA get.

    Zero-compute steps (e.g. promoted-filter head transfers) are skipped:
    there is nothing to hide behind them.
    """
    compute_tiles = [t for t in traces if t.compute_end > t.compute_start]
    if not compute_tiles:
        return 0.0
    overlapped = 0
    for tile in compute_tiles:
        if any(
            other.index > tile.index
            and other.get_start < tile.compute_end
            and other.get_end > tile.compute_start
            for other in traces
        ):
            overlapped += 1
    return overlapped / len(compute_tiles)
