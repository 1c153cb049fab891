"""Fused conv + bias + activation epilogues."""

import numpy as np
import pytest

from repro.api import SwDNNHandle
from repro.common.errors import PlanError
from repro.core.conv import ConvolutionEngine
from repro.core.plans import BatchSizeAwarePlan, ImageSizeAwarePlan
from repro.core.reference import conv2d_reference


@pytest.fixture
def case(rng, small_params):
    x = rng.standard_normal(small_params.input_shape)
    w = rng.standard_normal(small_params.filter_shape)
    bias = rng.standard_normal(small_params.no)
    return small_params, x, w, bias


class TestFusedEpilogue:
    def test_bias_fused(self, case):
        params, x, w, bias = case
        out, _ = ConvolutionEngine(ImageSizeAwarePlan(params)).run(x, w, bias=bias)
        expected = conv2d_reference(x, w) + bias[None, :, None, None]
        assert np.allclose(out, expected)

    def test_relu_fused(self, case):
        params, x, w, _ = case
        out, _ = ConvolutionEngine(BatchSizeAwarePlan(params)).run(
            x, w, activation="relu"
        )
        expected = np.maximum(conv2d_reference(x, w), 0.0)
        assert np.allclose(out, expected)

    def test_bias_then_relu(self, case):
        params, x, w, bias = case
        out, _ = ConvolutionEngine(ImageSizeAwarePlan(params)).run(
            x, w, bias=bias, activation="relu"
        )
        expected = np.maximum(
            conv2d_reference(x, w) + bias[None, :, None, None], 0.0
        )
        assert np.allclose(out, expected)

    def test_fusion_is_free_in_time(self, case):
        params, x, w, bias = case
        plan = ImageSizeAwarePlan(params)
        _, plain = ConvolutionEngine(plan).run(x, w)
        _, fused = ConvolutionEngine(plan).run(x, w, bias=bias, activation="relu")
        assert fused.seconds == pytest.approx(plain.seconds)
        assert fused.bytes_put == plain.bytes_put

    def test_bad_bias_shape(self, case):
        params, x, w, _ = case
        with pytest.raises(PlanError):
            ConvolutionEngine(ImageSizeAwarePlan(params)).run(
                x, w, bias=np.zeros(params.no + 1)
            )

    def test_unknown_activation(self, case):
        params, x, w, _ = case
        with pytest.raises(PlanError):
            ConvolutionEngine(ImageSizeAwarePlan(params)).run(
                x, w, activation="gelu"
            )


class TestHandleFusion:
    def test_through_api(self, case):
        params, x, w, bias = case
        handle = SwDNNHandle()
        out, _ = handle.convolution_forward(x, w, bias=bias, activation="relu")
        expected = np.maximum(
            conv2d_reference(x, w) + bias[None, :, None, None], 0.0
        )
        assert np.allclose(out, expected)
