"""Backward convolution passes vs the reference gradients."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import PlanError
from repro.core.backward import (
    BackwardConvolution,
    backward_data_params,
    backward_filter_params,
)
from repro.core.params import ConvParams
from repro.core.reference import conv2d_backward_reference


@pytest.fixture
def bw_params():
    return ConvParams(ni=8, no=8, ri=8, ci=8, kr=3, kc=3, b=8)


def _case(rng, p):
    x = rng.standard_normal(p.input_shape)
    w = rng.standard_normal(p.filter_shape)
    g = rng.standard_normal(p.output_shape)
    return x, w, g


class TestEquivalentParams:
    def test_backward_data_shapes(self, bw_params):
        eq = backward_data_params(bw_params)
        assert eq.ni == bw_params.no
        assert eq.no == bw_params.ni
        assert eq.ro == bw_params.ri
        assert eq.co == bw_params.ci

    def test_backward_filter_shapes(self, bw_params):
        eq = backward_filter_params(bw_params)
        assert eq.ro == bw_params.kr
        assert eq.co == bw_params.kc
        assert eq.b == bw_params.ni

    def test_backward_flop_parity(self, bw_params):
        """Both backward passes perform the same flops as the forward."""
        assert backward_data_params(bw_params).flops() >= bw_params.flops()
        assert backward_filter_params(bw_params).flops() == bw_params.flops()


class TestGradients:
    def test_grad_input_matches_reference(self, rng, bw_params):
        x, w, g = _case(rng, bw_params)
        ref_gx, _ = conv2d_backward_reference(x, w, g)
        gx, report = BackwardConvolution(bw_params).grad_input(w, g)
        assert np.allclose(gx, ref_gx)
        assert report.seconds > 0

    def test_grad_filter_matches_reference(self, rng, bw_params):
        x, w, g = _case(rng, bw_params)
        _, ref_gw = conv2d_backward_reference(x, w, g)
        gw, report = BackwardConvolution(bw_params).grad_filter(x, g)
        assert np.allclose(gw, ref_gw)
        assert report.seconds > 0

    @given(
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=12, deadline=None)
    def test_gradients_match_property(self, extra, k, seed):
        rng = np.random.default_rng(seed)
        p = ConvParams(ni=8, no=8, ri=k + extra + 3, ci=k + extra + 2, kr=k, kc=k, b=8)
        x, w, g = _case(rng, p)
        ref_gx, ref_gw = conv2d_backward_reference(x, w, g)
        bw = BackwardConvolution(p)
        gx, _ = bw.grad_input(w, g)
        gw, _ = bw.grad_filter(x, g)
        assert np.allclose(gx, ref_gx)
        assert np.allclose(gw, ref_gw)

    def test_shape_validation(self, rng, bw_params):
        bw = BackwardConvolution(bw_params)
        with pytest.raises(PlanError):
            bw.grad_input(rng.standard_normal((1, 1, 1, 1)), rng.standard_normal((1, 1, 1, 1)))
        with pytest.raises(PlanError):
            bw.grad_filter(rng.standard_normal((1, 1, 1, 1)), rng.standard_normal((1, 1, 1, 1)))


class TestTiming:
    def test_training_step_breakdown(self):
        p = ConvParams.from_output(ni=64, no=64, ro=32, co=32, kr=3, kc=3, b=32)
        total, breakdown = BackwardConvolution(p).training_step_time()
        assert set(breakdown) == {"forward", "backward_data", "backward_filter"}
        assert total == pytest.approx(
            sum(r.seconds for r in breakdown.values())
        )

    def test_backward_costs_comparable_to_forward(self):
        """Backward-filter does the same flops; its time must be within a
        small factor of forward (same bandwidth-bound machine)."""
        p = ConvParams.from_output(ni=64, no=64, ro=32, co=32, kr=3, kc=3, b=64)
        _, breakdown = BackwardConvolution(p).training_step_time()
        fwd = breakdown["forward"].seconds
        assert breakdown["backward_filter"].seconds < 10 * fwd

    def test_evaluate_only_paths(self, bw_params):
        bw = BackwardConvolution(bw_params)
        assert bw.evaluate_grad_input().seconds > 0
        assert bw.evaluate_grad_filter().seconds > 0
