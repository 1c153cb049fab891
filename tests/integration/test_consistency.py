"""Cross-cutting consistency: the pieces must tell one coherent story."""

import pytest

from repro.core.conv import ConvolutionEngine
from repro.core.params import ConvParams
from repro.core.planner import plan_convolution
from repro.core.plans import BatchSizeAwarePlan, ImageSizeAwarePlan


@pytest.fixture(scope="module")
def layer():
    return ConvParams.from_output(ni=128, no=128, ro=32, co=32, kr=3, kc=3, b=64)


class TestEngineModelConsistency:
    def test_engine_bytes_equal_stream_totals(self, layer):
        """The timed engine and the model's traffic aggregation must count
        the same bytes — they walk the same schedule."""
        for family in (ImageSizeAwarePlan, BatchSizeAwarePlan):
            plan = family(layer)
            report = ConvolutionEngine(plan).evaluate()
            stream_total = plan.total_dma_bytes()
            assert report.bytes_get + report.bytes_put == stream_total

    def test_effective_bandwidth_within_table_range(self, layer):
        """Achieved DMA bandwidth must sit inside the physical envelope:
        below the best Table II point, above the worst derated one."""
        plan = BatchSizeAwarePlan(layer)
        report = ConvolutionEngine(plan).evaluate()
        bw = report.effective_dma_bandwidth
        assert 0.7 * 2.56e9 <= bw <= 36.01e9

    def test_planner_winner_is_measurably_best(self, layer):
        """The model-chosen plan should not lose badly to the alternative
        when actually timed (the planner's reason to exist)."""
        choice = plan_convolution(layer)
        chosen = ConvolutionEngine(choice.plan).evaluate()
        for family in (ImageSizeAwarePlan, BatchSizeAwarePlan):
            other = family(layer)
            if other.name == choice.kind:
                continue
            other_report = ConvolutionEngine(other).evaluate()
            assert chosen.gflops >= 0.7 * other_report.gflops

    def test_report_identities(self, layer):
        report = ConvolutionEngine(BatchSizeAwarePlan(layer)).evaluate()
        assert report.gflops == pytest.approx(
            report.flops / report.seconds / 1e9
        )
        assert report.efficiency == pytest.approx(
            report.gflops * 1e9 / report.peak_flops
        )
        assert 0.0 <= report.overlap_fraction < 1.0

    def test_seconds_bounded_by_components(self, layer):
        """Total time is at least each busy component and at most their sum."""
        report = ConvolutionEngine(BatchSizeAwarePlan(layer)).evaluate()
        assert report.seconds >= report.dma_seconds - 1e-12
        assert report.seconds >= report.compute_seconds - 1e-12
        assert report.seconds <= report.dma_seconds + report.compute_seconds + 1e-12


class TestScorecardAgreesWithExperiments:
    def test_table3_rows_feed_scorecard(self):
        from repro.experiments import table3
        from repro.experiments.scorecard import run as scorecard_run

        rows = table3.run()
        max_dev = max(
            abs(r.measured_gflops - r.paper_measured) / r.paper_measured
            for r in rows
        )
        checks = {c.claim: c for c in scorecard_run(fast=True)}
        reported = float(checks["Table III measured (max dev %)"].ours)
        assert reported == pytest.approx(max_dev * 100, abs=0.06)
