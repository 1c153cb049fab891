"""Timeline traces and the Gantt renderer."""

import pytest

from repro.core.params import ConvParams
from repro.core.plans import BatchSizeAwarePlan, ImageSizeAwarePlan
from repro.perf.trace import overlap_summary, render_gantt, trace_plan


@pytest.fixture(scope="module")
def traces():
    params = ConvParams.from_output(ni=64, no=64, ro=16, co=16, kr=3, kc=3, b=64)
    return trace_plan(BatchSizeAwarePlan(params), max_tiles=12)


class TestTrace:
    def test_requested_count(self, traces):
        assert len(traces) == 12

    def test_intervals_ordered(self, traces):
        for t in traces:
            assert t.get_start <= t.get_end <= t.compute_start <= t.compute_end
            assert t.compute_end <= t.put_start <= t.put_end

    def test_compute_serializes(self, traces):
        for prev, cur in zip(traces, traces[1:]):
            assert cur.compute_start >= prev.compute_end - 1e-15

    def test_double_buffering_overlaps(self, traces):
        """The point of Section IV-A: most tiles' loads run under the
        previous tile's compute."""
        assert overlap_summary(traces) > 0.5

    def test_buffer_constraint(self, traces):
        """Tile i's get waits for tile i-2's compute (ping/pong)."""
        for i in range(2, len(traces)):
            assert traces[i].get_start >= traces[i - 2].compute_end - 1e-15


class TestGantt:
    def test_renders_rows(self, traces):
        text = render_gantt(traces)
        rows = [l for l in text.splitlines() if l.startswith("tile")]
        assert len(rows) == len(traces)
        assert "#" in text and "=" in text

    def test_empty(self):
        assert render_gantt([]) == "(no tiles)"

    def test_image_plan_traces_too(self):
        params = ConvParams.from_output(ni=64, no=64, ro=16, co=16, kr=3, kc=3, b=64)
        traces = trace_plan(ImageSizeAwarePlan(params), max_tiles=6)
        assert len(traces) == 6
        assert "tile" in render_gantt(traces)


class TestOverlapSummary:
    def test_short_traces(self, traces):
        assert overlap_summary(traces[:1]) == 0.0


class TestEngineTracing:
    """trace_plan accepts a live engine, including a degraded one."""

    PARAMS = ConvParams.from_output(ni=64, no=64, ro=16, co=16, kr=3, kc=3, b=64)

    def test_engine_only_invocation(self):
        from repro.core.conv import ConvolutionEngine

        engine = ConvolutionEngine(BatchSizeAwarePlan(self.PARAMS))
        traces = trace_plan(engine=engine, max_tiles=6)
        assert len(traces) == 6

    def test_needs_plan_or_engine(self):
        with pytest.raises(ValueError, match="plan or an engine"):
            trace_plan()

    def test_first_tiles_of_the_whole_schedule(self):
        from repro.core.conv import ConvolutionEngine

        engine = ConvolutionEngine(BatchSizeAwarePlan(self.PARAMS))
        every = engine.tile_intervals(10**9)
        assert len(every) == engine.evaluate().tiles
        for count in (0, 1, 5, len(every) - 1, len(every)):
            assert engine.tile_intervals(count) == every[:count]

    def test_negative_tile_count_rejected(self):
        from repro.core.conv import ConvolutionEngine

        engine = ConvolutionEngine(BatchSizeAwarePlan(self.PARAMS))
        with pytest.raises(ValueError, match="max_tiles"):
            engine.tile_intervals(-1)

    def test_fenced_submesh_slows_compute(self):
        """An engine degraded onto a fenced submesh traces the timeline it
        would actually execute: fewer effective CPEs, longer compute."""
        from repro.core.conv import ConvolutionEngine
        from repro.faults.plan import FaultPlan, FaultSpec

        plan = BatchSizeAwarePlan(self.PARAMS)
        healthy = trace_plan(plan, max_tiles=6)
        fenced = FaultPlan(
            spec=FaultSpec(seed=7, fenced_cpes=((0, 0), (1, 1), (2, 2), (3, 3)))
        )
        degraded_engine = ConvolutionEngine(
            BatchSizeAwarePlan(self.PARAMS), fault_plan=fenced
        )
        degraded = trace_plan(engine=degraded_engine, max_tiles=6)
        assert len(degraded) == 6
        healthy_compute = sum(t.compute_end - t.compute_start for t in healthy)
        degraded_compute = sum(t.compute_end - t.compute_start for t in degraded)
        assert degraded_compute > healthy_compute

    def test_shared_recurrence_bounds_engine_report(self):
        """The trace and the timed evaluation fold the same recurrence; the
        report only adds the memory-interface bound and LDM-port contention
        on top, so the trace's end is a tight lower bound on the report."""
        from repro.core.conv import ConvolutionEngine, clear_timing_cache

        engine = ConvolutionEngine(BatchSizeAwarePlan(self.PARAMS))
        traces = trace_plan(engine=engine, max_tiles=10**9)
        clear_timing_cache()
        report = engine.evaluate()
        pipeline_end = max(t.put_end for t in traces)
        assert pipeline_end <= report.seconds * (1 + 1e-12)
        # contention + interface bound cannot more than double the timeline
        assert report.seconds <= 2 * pipeline_end
