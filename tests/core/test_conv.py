"""The execution engine: functional correctness and timing behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import PlanError
from repro.core.algorithms import engine_for_plan, make_lowered_plan
from repro.core.conv import (
    ConvolutionEngine,
    TimingReport,
    clear_timing_cache,
    conv_forward,
    evaluate_chip,
    _StepCost,
    _pipeline_timeline,
)
from repro.core.ldm_blocking import BatchBlocking, ImageBlocking
from repro.core.params import ConvParams
from repro.core.plans import BatchSizeAwarePlan, ImageSizeAwarePlan
from repro.core.reference import conv2d_reference
from repro.faults import FaultPlan, FaultSpec
from repro.telemetry import Telemetry


class TestFunctionalCorrectness:
    def test_image_plan_matches_reference(self, rng, small_params):
        x = rng.standard_normal(small_params.input_shape)
        w = rng.standard_normal(small_params.filter_shape)
        out, _ = ConvolutionEngine(ImageSizeAwarePlan(small_params)).run(x, w)
        assert np.allclose(out, conv2d_reference(x, w))

    def test_batch_plan_matches_reference(self, rng, small_params):
        x = rng.standard_normal(small_params.input_shape)
        w = rng.standard_normal(small_params.filter_shape)
        out, _ = ConvolutionEngine(BatchSizeAwarePlan(small_params)).run(x, w)
        assert np.allclose(out, conv2d_reference(x, w))

    def test_mesh_backend_matches_reference(self, rng):
        params = ConvParams(ni=8, no=8, ri=8, ci=8, kr=3, kc=3, b=8)
        x = rng.standard_normal(params.input_shape)
        w = rng.standard_normal(params.filter_shape)
        out, _ = ConvolutionEngine(
            ImageSizeAwarePlan(params), backend="mesh"
        ).run(x, w)
        assert np.allclose(out, conv2d_reference(x, w))

    def test_conv_forward_api(self, rng, small_params):
        x = rng.standard_normal(small_params.input_shape)
        w = rng.standard_normal(small_params.filter_shape)
        assert np.allclose(conv_forward(x, w), conv2d_reference(x, w))

    def test_shape_validation(self, rng, small_params):
        engine = ConvolutionEngine(ImageSizeAwarePlan(small_params))
        with pytest.raises(PlanError):
            engine.run(rng.standard_normal((1, 2, 3, 4)), rng.standard_normal((1, 2, 3, 3)))

    def test_unknown_backend_rejected(self, small_params):
        with pytest.raises(PlanError):
            ConvolutionEngine(ImageSizeAwarePlan(small_params), backend="fpga")

    @given(st.integers(min_value=0, max_value=999), st.sampled_from(["image", "batch"]))
    @settings(max_examples=15, deadline=None)
    def test_matches_reference_property(self, seed, kind):
        rng = np.random.default_rng(seed)
        params = ConvParams(
            ni=8,
            no=8,
            ri=int(rng.integers(4, 9)),
            ci=int(rng.integers(4, 9)),
            kr=int(rng.integers(1, 4)),
            kc=int(rng.integers(1, 4)),
            b=8,
        )
        plan = (
            ImageSizeAwarePlan(params) if kind == "image" else BatchSizeAwarePlan(params)
        )
        x = rng.standard_normal(params.input_shape)
        w = rng.standard_normal(params.filter_shape)
        out, _ = ConvolutionEngine(plan).run(x, w)
        assert np.allclose(out, conv2d_reference(x, w))


class TestTiming:
    def test_evaluate_covers_layer_flops(self, paper_params):
        report = ConvolutionEngine(BatchSizeAwarePlan(paper_params)).evaluate()
        assert report.flops == paper_params.flops()

    def test_run_and_evaluate_agree_on_time(self, rng, small_params):
        """A run reports exactly what ``evaluate()`` reports on its engine."""
        p = small_params
        tiny = ConvParams(ni=8, no=8, ri=6, ci=6, kr=3, kc=3, b=8)
        ni_blocked = [
            ImageSizeAwarePlan(p, blocking=ImageBlocking(b_b=8, b_co=4, b_ni=8)),
            BatchSizeAwarePlan(p, blocking=BatchBlocking(b_co=4, b_ni=8)),
        ]
        cases = [
            (plan, {"backend": backend})
            for plan in [ImageSizeAwarePlan(p), BatchSizeAwarePlan(p)] + ni_blocked
            for backend in ("numpy", "mesh-fast")
        ]
        cases += [
            (ImageSizeAwarePlan(tiny), {"backend": "mesh"}),
            (BatchSizeAwarePlan(tiny), {"backend": "mesh"}),
            (ImageSizeAwarePlan(p), {"fused_pool": 2}),
            (BatchSizeAwarePlan(p), {"fused_pool": 2, "backend": "mesh-fast"}),
        ]
        for plan in (ImageSizeAwarePlan(p), BatchSizeAwarePlan(p)):
            for backend in ("numpy", "mesh-fast"):
                faults = FaultPlan(
                    FaultSpec(dma_bandwidth_factor=0.6, num_random_fenced=2)
                )
                cases.append((plan, {"backend": backend, "fault_plan": faults}))
        for algorithm in ("im2col", "winograd"):
            for backend in ("numpy", "mesh-fast"):
                cases.append(
                    (make_lowered_plan(algorithm, p), {"backend": backend})
                )
        for plan, kwargs in cases:
            clear_timing_cache()
            engine = engine_for_plan(plan, **kwargs)
            x = rng.standard_normal(plan.params.input_shape)
            w = rng.standard_normal(plan.params.filter_shape)
            _, run_report = engine.run(x, w)
            assert run_report == engine.evaluate(), (plan.describe(), kwargs)

    def test_run_posts_no_evaluation_counters(self, rng, small_params):
        telemetry = Telemetry()
        engine = ConvolutionEngine(
            BatchSizeAwarePlan(small_params), telemetry=telemetry
        )
        x = rng.standard_normal(small_params.input_shape)
        w = rng.standard_normal(small_params.filter_shape)
        clear_timing_cache()
        engine.run(x, w)  # walks the tile program
        engine.run(x, w)  # reads the memo
        counters = telemetry.counters.as_dict()
        assert counters["engine.runs"] == 2
        assert not [
            name
            for name in counters
            if name in ("engine.evaluations", "engine.tiles", "engine.flops")
            or name.startswith("engine.timing_cache.")
        ]

    def test_efficiency_below_ee_ceiling(self, paper_params):
        report = ConvolutionEngine(BatchSizeAwarePlan(paper_params)).evaluate()
        assert 0 < report.efficiency < 0.94  # EE(128) = 0.9275 is the ceiling

    def test_paper_scale_performance_band(self, paper_params):
        """Fig. 7 headline: per-CG sustained rate in the hundreds of Gflops."""
        report = ConvolutionEngine(BatchSizeAwarePlan(paper_params)).evaluate()
        assert 200 < report.gflops < 742

    def test_zero_contention_is_faster(self, paper_params):
        plan = BatchSizeAwarePlan(paper_params)
        ideal = ConvolutionEngine(plan, overlap_contention=0.0).evaluate()
        real = ConvolutionEngine(plan, overlap_contention=0.5).evaluate()
        assert ideal.seconds < real.seconds

    def test_report_properties(self):
        report = TimingReport(
            seconds=2.0,
            flops=4e9,
            dma_seconds=1.0,
            compute_seconds=1.5,
            bytes_get=100,
            bytes_put=50,
            tiles=3,
            peak_flops=10e9,
        )
        assert report.gflops == pytest.approx(2.0)
        assert report.efficiency == pytest.approx(0.2)
        assert report.overlap_fraction == pytest.approx(0.2)
        assert report.effective_dma_bandwidth == pytest.approx(150.0)


def _timeline(costs, contention):
    """The timeline of a per-tile cost stream: one run of repeat 1."""
    return _pipeline_timeline([(tuple(costs), 1)], contention)


class TestPipelineTimeline:
    def test_single_step(self):
        total, dma, comp = _timeline(
            [_StepCost(1.0, 2.0, 0.5, 0, 0, 0)], contention=0.0
        )
        assert total == pytest.approx(3.5)
        assert dma == pytest.approx(1.5)
        assert comp == pytest.approx(2.0)

    def test_double_buffering_overlaps(self):
        costs = [_StepCost(1.0, 1.0, 0.0, 0, 0, 0) for _ in range(10)]
        total, dma, comp = _timeline(costs, contention=0.0)
        # Perfect overlap: ~11 units instead of 20.
        assert total < 12.0

    def test_interface_serial_bound(self):
        # DMA-dominated: total can never beat the serial transfer time.
        costs = [_StepCost(2.0, 0.1, 1.0, 0, 0, 0) for _ in range(5)]
        total, dma, _ = _timeline(costs, contention=0.0)
        assert total >= dma

    def test_contention_penalizes_overlap(self):
        costs = [_StepCost(1.0, 1.0, 0.0, 0, 0, 0) for _ in range(10)]
        ideal, _, _ = _timeline(costs, contention=0.0)
        half, _, _ = _timeline(costs, contention=0.5)
        full, _, _ = _timeline(costs, contention=1.0)
        assert ideal < half < full
        assert full == pytest.approx(20.0)

    def test_contention_validated(self):
        with pytest.raises(ValueError):
            _timeline([_StepCost(1, 1, 1, 0, 0, 0)], contention=2.0)

    def test_empty(self):
        total, dma, comp = _pipeline_timeline([])
        assert (total, dma, comp) == (0.0, 0.0, 0.0)


class TestChipEvaluation:
    def test_four_groups_reported(self, paper_params):
        gflops, reports = evaluate_chip(paper_params)
        assert len(reports) == 4
        assert gflops > 0

    def test_near_linear_scaling(self, paper_params):
        one, _ = evaluate_chip(paper_params, num_groups=1)
        four, _ = evaluate_chip(paper_params, num_groups=4)
        assert four / one == pytest.approx(4.0, rel=0.08)

    def test_plan_kind_override(self, paper_params):
        gflops, _ = evaluate_chip(paper_params, plan_kind="image")
        assert gflops > 0

    def test_headline_above_1_5_tflops(self):
        params = ConvParams.from_output(ni=256, no=256, ro=64, co=64, kr=3, kc=3, b=128)
        gflops, _ = evaluate_chip(params)
        assert gflops > 1500.0
