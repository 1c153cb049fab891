"""Input-channel (Ni) blocking — Section IV-A's fallback for deep layers."""

import numpy as np
import pytest

from repro.core.conv import ConvolutionEngine
from repro.core.ldm_blocking import (
    BatchBlocking,
    ImageBlocking,
    choose_batch_blocking,
    choose_image_blocking,
)
from repro.core.params import ConvParams
from repro.core.planner import plan_convolution
from repro.core.plans import BatchSizeAwarePlan, ImageSizeAwarePlan
from repro.core.reference import conv2d_reference


@pytest.fixture
def deep_params():
    """A reduction too deep for full-Ni LDM tiles (a backward-filter shape)."""
    return ConvParams(ni=1024, no=256, ri=10, ci=10, kr=8, kc=8, b=128)


class TestChoosersFallBack:
    def test_deep_layer_plans_with_ni_blocking(self, deep_params):
        choice = plan_convolution(deep_params)
        assert choice.plan.blocking.b_ni is not None
        assert choice.plan.blocking.b_ni < deep_params.ni

    def test_shallow_layer_keeps_full_ni(self, paper_params):
        img = choose_image_blocking(paper_params)
        bat = choose_batch_blocking(paper_params)
        assert img.b_ni is None
        assert bat.b_ni is None

    def test_ni_block_helper(self):
        blk = ImageBlocking(b_b=8, b_co=4, b_ni=32)
        assert blk.ni_block(128) == 32
        assert blk.ni_block(16) == 16
        assert ImageBlocking(b_b=8, b_co=4).ni_block(128) == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            ImageBlocking(b_b=8, b_co=4, b_ni=0)
        with pytest.raises(ValueError):
            BatchBlocking(b_co=4, b_ni=-1)


class TestFunctionalWithNiBlocking:
    def test_image_plan_matches_reference(self, rng):
        params = ConvParams(ni=16, no=8, ri=8, ci=8, kr=3, kc=3, b=8)
        plan = ImageSizeAwarePlan(
            params, blocking=ImageBlocking(b_b=8, b_co=4, b_ni=4)
        )
        x = rng.standard_normal(params.input_shape)
        w = rng.standard_normal(params.filter_shape)
        out, _ = ConvolutionEngine(plan).run(x, w)
        assert np.allclose(out, conv2d_reference(x, w))

    def test_batch_plan_matches_reference(self, rng):
        params = ConvParams(ni=16, no=8, ri=8, ci=8, kr=3, kc=3, b=8)
        plan = BatchSizeAwarePlan(params, blocking=BatchBlocking(b_co=2, b_ni=4))
        x = rng.standard_normal(params.input_shape)
        w = rng.standard_normal(params.filter_shape)
        out, _ = ConvolutionEngine(plan).run(x, w)
        assert np.allclose(out, conv2d_reference(x, w))

    def test_uneven_ni_split_matches_reference(self, rng):
        # Ni = 12 with b_ni = 8 -> blocks of 8 and 4.
        params = ConvParams(ni=12, no=8, ri=6, ci=6, kr=3, kc=3, b=8)
        plan = ImageSizeAwarePlan(
            params, blocking=ImageBlocking(b_b=8, b_co=4, b_ni=8)
        )
        x = rng.standard_normal(params.input_shape)
        w = rng.standard_normal(params.filter_shape)
        out, _ = ConvolutionEngine(plan).run(x, w)
        assert np.allclose(out, conv2d_reference(x, w))


class TestAccounting:
    def test_flops_and_bytes_unchanged_by_ni_blocking(self):
        params = ConvParams(ni=16, no=8, ri=8, ci=8, kr=3, kc=3, b=8)
        whole = ImageSizeAwarePlan(params, blocking=ImageBlocking(b_b=8, b_co=4))
        split = ImageSizeAwarePlan(
            params, blocking=ImageBlocking(b_b=8, b_co=4, b_ni=4)
        )
        def totals(plan):
            flops = bytes_ = 0
            for step in plan.tile_schedule():
                flops += step.flops
                bytes_ += sum(t.nbytes for t in step.gets + step.puts)
            return flops, bytes_
        assert totals(whole) == totals(split)

    def test_coalesced_matches_full_with_ni_blocking(self):
        params = ConvParams(ni=16, no=8, ri=8, ci=8, kr=3, kc=3, b=8)
        for family, blocking in (
            (ImageSizeAwarePlan, ImageBlocking(b_b=8, b_co=4, b_ni=4)),
            (BatchSizeAwarePlan, BatchBlocking(b_co=2, b_ni=4)),
        ):
            plan = family(params, blocking=blocking)
            full = sum(
                t.nbytes for s in plan.tile_schedule() for t in s.gets + s.puts
            )
            program = sum(
                count * t.nbytes
                for pattern, count in plan.tile_program()
                for s in pattern
                for t in s.gets + s.puts
            )
            assert full == program

    def test_deep_layer_evaluates(self, deep_params):
        choice = plan_convolution(deep_params)
        report = ConvolutionEngine(choice.plan).evaluate()
        assert report.flops == deep_params.flops()
        assert report.gflops > 0
