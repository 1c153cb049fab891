"""Cross-module integration: the full pipeline, end to end."""

import numpy as np
import pytest

from repro.core.conv import ConvolutionEngine, evaluate_chip
from repro.core.layers import AvgPool2D, Conv2D, Dense, Flatten, ReLU
from repro.core.network import Sequential, synthetic_image_dataset, train_classifier
from repro.core.params import ConvParams
from repro.core.planner import plan_convolution
from repro.core.reference import conv2d_reference


class TestPlannedConvolutionEndToEnd:
    """plan -> engine -> mesh -> output == reference, with sane timing."""

    @pytest.mark.parametrize("backend", ["numpy", "mesh"])
    def test_planned_execution_matches_reference(self, rng, backend):
        params = ConvParams(ni=8, no=8, ri=9, ci=9, kr=3, kc=3, b=8)
        choice = plan_convolution(params)
        x = rng.standard_normal(params.input_shape)
        w = rng.standard_normal(params.filter_shape)
        out, report = ConvolutionEngine(choice.plan, backend=backend).run(x, w)
        assert np.allclose(out, conv2d_reference(x, w))
        assert report.flops == params.flops()
        assert report.seconds > 0

    def test_model_and_measurement_agree_in_order_of_magnitude(self, paper_params):
        choice = plan_convolution(paper_params)
        measured = ConvolutionEngine(choice.plan).evaluate()
        ratio = choice.estimate.gflops / measured.gflops
        assert 0.4 < ratio < 2.5

    def test_plans_agree_functionally(self, rng, small_params):
        """Both loop-schedule families compute the same convolution."""
        from repro.core.plans import BatchSizeAwarePlan, ImageSizeAwarePlan

        x = rng.standard_normal(small_params.input_shape)
        w = rng.standard_normal(small_params.filter_shape)
        out_img, _ = ConvolutionEngine(ImageSizeAwarePlan(small_params)).run(x, w)
        out_bat, _ = ConvolutionEngine(BatchSizeAwarePlan(small_params)).run(x, w)
        assert np.allclose(out_img, out_bat)


class TestChipLevel:
    def test_strip_results_assemble_to_full_layer(self, rng):
        """Functional equivalent of the Section III-D partitioning: strips
        computed independently equal the full-layer reference."""
        params = ConvParams(ni=8, no=8, ri=10, ci=8, kr=3, kc=3, b=8)
        x = rng.standard_normal(params.input_shape)
        w = rng.standard_normal(params.filter_shape)
        from repro.hw.chip import partition_rows

        strips = partition_rows(params.ro, 4)
        pieces = []
        for start, stop in strips:
            if stop == start:
                continue
            strip_params = params.with_rows(stop - start)
            strip_x = x[:, :, start : stop + params.kr - 1, :]
            choice = plan_convolution(strip_params)
            out, _ = ConvolutionEngine(choice.plan).run(strip_x, w)
            pieces.append(out)
        assembled = np.concatenate(pieces, axis=2)
        assert np.allclose(assembled, conv2d_reference(x, w))

    def test_headline_claim(self):
        """Most Fig. 7-scale layers run above 1.6 Tflops on the 4-CG chip."""
        hits = 0
        for no in (192, 256, 320):
            params = ConvParams.from_output(
                ni=no, no=no, ro=64, co=64, kr=3, kc=3, b=128
            )
            gflops, _ = evaluate_chip(params)
            hits += gflops > 1600
        assert hits >= 2


class TestTrainingEndToEnd:
    def test_cnn_learns_through_simulated_convolution(self):
        rng = np.random.default_rng(17)
        x, labels = synthetic_image_dataset(48, 4, 8, 8, 3, rng=rng)
        net = Sequential(
            [
                Conv2D(ni=4, no=8, kr=3, kc=3, rng=rng, engine="simulated"),
                ReLU(),
                AvgPool2D(2),
                Flatten(),
                Dense(8 * 3 * 3, 3, rng=rng),
            ]
        )
        result = train_classifier(
            net, x, labels, epochs=4, batch_size=16, lr=0.02, momentum=0.9, rng=rng
        )
        assert result.losses[-1] < result.losses[0]
