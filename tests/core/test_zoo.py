"""The model zoo: network definitions and training-step timing."""

import pytest

from repro.common.errors import PlanError
from repro.core.zoo import (
    NETWORKS,
    ZooLayer,
    cifar_quick,
    layer_cost,
    time_network,
    vgg16,
    vgg_like_stack,
)
from repro.core.gemm_plan import GemmParams
from repro.core.params import ConvParams


class TestDefinitions:
    def test_vgg16_shape(self):
        layers = vgg16(batch=16)
        convs = [l for l in layers if l.kind == "conv"]
        fcs = [l for l in layers if l.kind == "fc"]
        assert len(convs) == 13
        assert len(fcs) == 3

    def test_vgg16_channel_chain(self):
        convs = [l.conv for l in vgg16(batch=8) if l.kind == "conv"]
        # Each block's input channels equal the previous block's output.
        for prev, cur in zip(convs, convs[1:]):
            assert cur.ni == prev.no

    def test_vgg16_spatial_pyramid(self):
        convs = [l.conv for l in vgg16(batch=8) if l.kind == "conv"]
        sizes = [c.ro for c in convs]
        assert sizes[0] == 224
        assert sizes[-1] == 14
        assert sizes == sorted(sizes, reverse=True)

    def test_all_filters_3x3(self):
        for layer in vgg16(batch=8):
            if layer.kind == "conv":
                assert (layer.conv.kr, layer.conv.kc) == (3, 3)

    def test_cifar_quick(self):
        layers = cifar_quick(batch=64)
        assert layers[0].conv.b == 64
        assert layers[-1].fc.m == 10

    def test_registry(self):
        assert set(NETWORKS) == {"vgg16", "cifar_quick"}

    def test_layer_validation(self):
        with pytest.raises(PlanError):
            ZooLayer(name="x", kind="conv")
        with pytest.raises(PlanError):
            ZooLayer(name="x", kind="fc")
        with pytest.raises(PlanError):
            ZooLayer(name="x", kind="pooling")
        with pytest.raises(ValueError):  # non-positive FC sizes
            ZooLayer(name="x", kind="fc", fc=GemmParams(m=10, n=4, k=0))

    def test_gradient_bytes_count_weights_only(self):
        p = ConvParams.from_output(ni=8, no=16, ro=8, co=8, kr=3, kc=3, b=4)
        assert ZooLayer("c", "conv", conv=p).gradient_bytes() == 16 * 8 * 3 * 3 * 8
        fc = ZooLayer("f", "fc", fc=GemmParams(m=10, n=4, k=100))
        assert fc.gradient_bytes() == 100 * 10 * 8

    def test_vgg_like_stack(self):
        layers = vgg_like_stack(batch=32)
        assert [l.kind for l in layers] == ["conv"] * 3 + ["fc"] * 2
        assert all(l.conv.b == 32 for l in layers[:3])
        assert all(l.fc.n == 32 for l in layers[3:])
        for cost in map(layer_cost, layers):
            assert cost.forward_seconds > 0 and cost.gradient_bytes > 0
        with pytest.raises(PlanError):
            vgg_like_stack(batch=0)

    def test_layer_flops(self):
        layer = ZooLayer(name="fc", kind="fc", fc=GemmParams(4, 5, 6))
        assert layer.flops() == 2 * 4 * 5 * 6


class TestTiming:
    @pytest.fixture(scope="class")
    def cifar_timing(self):
        return time_network("cifar_quick", batch=64)

    def test_every_layer_timed(self, cifar_timing):
        assert len(cifar_timing.costs) == len(cifar_timing.layers) == 5
        for layer, cost in zip(cifar_timing.layers, cifar_timing.costs):
            assert cost.name == layer.name
            assert cost.forward_seconds > 0
            assert cost.backward_seconds > 0
            assert cost.gradient_bytes == layer.gradient_bytes()
            assert cost == layer_cost(layer)

    def test_backward_costs_more_than_forward(self, cifar_timing):
        """Two backward convolutions vs one forward."""
        conv_costs = [
            cost
            for layer, cost in zip(cifar_timing.layers, cifar_timing.costs)
            if layer.kind == "conv"
        ]
        assert sum(c.backward_seconds for c in conv_costs) > sum(
            c.forward_seconds for c in conv_costs
        )

    def test_aggregates(self, cifar_timing):
        assert cifar_timing.step_seconds == pytest.approx(
            sum(c.total_seconds for c in cifar_timing.costs)
        )
        assert cifar_timing.images_per_second > 0
        assert 0 < cifar_timing.sustained_gflops < 4 * 742.4

    def test_unknown_network(self):
        with pytest.raises(PlanError):
            time_network("resnet5000")

    def test_batch_override(self):
        t = time_network("cifar_quick", batch=32)
        assert t.batch == 32
