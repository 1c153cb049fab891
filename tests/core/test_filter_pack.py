"""Memoized filter-layout packing: correctness, reuse, invalidation.

The engine packs each ``(kr, kc, ni-block)`` filter slice into a
contiguous operand once per ``(weights, version)`` pair and multiplies the
pack directly on the numpy backend.  These tests pin the three properties
serving depends on: packed output is bit-identical to the unpacked path,
repeated inference packs exactly once, and an in-place parameter update
(the training loop) invalidates the pack rather than serving stale
weights.
"""

import numpy as np

from repro.core.conv import ConvolutionEngine
from repro.core.layers import Conv2D, ReLU
from repro.core.network import SGD, Sequential
from repro.core.params import ConvParams
from repro.core.planner import plan_convolution
from repro.core.reference import conv2d_reference
from repro.telemetry import Telemetry

PARAMS = ConvParams(ni=8, no=8, ri=10, ci=10, kr=3, kc=3, b=4)


def _engine(telemetry=None):
    return ConvolutionEngine(
        plan_convolution(PARAMS).plan, backend="numpy", telemetry=telemetry
    )


def _data(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(PARAMS.input_shape)
    w = rng.standard_normal(PARAMS.filter_shape)
    return x, w


class TestPackedParity:
    def test_packed_run_is_bit_identical_to_unpacked(self):
        x, w = _data()
        unpacked, _ = _engine().run(x, w)
        packed, _ = _engine().run(x, w, filter_version=0)
        np.testing.assert_array_equal(packed, unpacked)

    def test_packed_run_matches_reference(self):
        x, w = _data(1)
        out, _ = _engine().run(x, w, filter_version=0)
        np.testing.assert_allclose(
            out, conv2d_reference(x, w), rtol=1e-10, atol=1e-10
        )

    def test_fused_epilogue_survives_packing(self):
        x, w = _data(2)
        bias = np.linspace(-0.5, 0.5, PARAMS.no)
        plain, _ = _engine().run(x, w, bias=bias, activation="relu")
        packed, _ = _engine().run(
            x, w, bias=bias, activation="relu", filter_version=0
        )
        np.testing.assert_array_equal(packed, plain)


class TestPackMemoization:
    def test_repeated_runs_pack_exactly_once(self):
        telem = Telemetry()
        engine = _engine(telem)
        x, w = _data(3)
        engine.run(x, w, filter_version=0)
        packs = telem.counters.get("engine.filter_pack.packs")
        assert packs > 0
        for _ in range(3):
            engine.run(x, w, filter_version=0)
        assert telem.counters.get("engine.filter_pack.packs") == packs
        assert telem.counters.get("engine.filter_pack.invalidations") == 0

    def test_prepack_makes_first_run_free(self):
        telem = Telemetry()
        engine = _engine(telem)
        x, w = _data(4)
        slices = engine.prepack_filters(w, version=0)
        assert slices > 0
        packs = telem.counters.get("engine.filter_pack.packs")
        assert packs == slices
        engine.run(x, w, filter_version=0)
        assert telem.counters.get("engine.filter_pack.packs") == packs

    def test_prepack_is_idempotent(self):
        telem = Telemetry()
        engine = _engine(telem)
        _, w = _data(5)
        first = engine.prepack_filters(w, version=0)
        second = engine.prepack_filters(w, version=0)
        assert first == second
        assert telem.counters.get("engine.filter_pack.packs") == first

    def test_none_version_skips_packing(self):
        telem = Telemetry()
        engine = _engine(telem)
        x, w = _data(6)
        engine.run(x, w)
        assert telem.counters.get("engine.filter_pack.packs") == 0


class TestPackInvalidation:
    def test_version_bump_drops_stale_pack(self):
        telem = Telemetry()
        engine = _engine(telem)
        x, w = _data(7)
        out_v0, _ = engine.run(x, w, filter_version=0)
        packs_v0 = telem.counters.get("engine.filter_pack.packs")
        # Mutate the weights in place — exactly what SGD does — and bump
        # the version.  A stale pack would reproduce out_v0.
        w *= 0.5
        out_v1, _ = engine.run(x, w, filter_version=1)
        assert telem.counters.get("engine.filter_pack.invalidations") == 1
        assert telem.counters.get("engine.filter_pack.packs") == 2 * packs_v0
        np.testing.assert_array_equal(out_v1, out_v0 * 0.5)

    def test_different_tensor_object_invalidates(self):
        telem = Telemetry()
        engine = _engine(telem)
        x, w = _data(8)
        engine.run(x, w, filter_version=0)
        out_copy, _ = engine.run(x, w.copy() * 2.0, filter_version=0)
        assert telem.counters.get("engine.filter_pack.invalidations") == 1
        np.testing.assert_allclose(
            out_copy, conv2d_reference(x, w * 2.0), rtol=1e-10, atol=1e-10
        )


class TestTrainingLoopRegression:
    def test_sgd_step_invalidates_layer_pack(self):
        """A simulated-engine training loop must not serve pre-update
        weights from a memoized pack after ``SGD.step``."""
        rng = np.random.default_rng(9)
        conv = Conv2D(4, 4, 3, 3, rng=rng, engine="simulated")
        net = Sequential([conv, ReLU()])
        opt = SGD(net, lr=0.05)
        x = rng.standard_normal((2, 4, 8, 8))
        before = conv._w_version
        out1 = net.forward(x)
        grad = np.ones_like(out1)
        net.backward(grad)
        opt.step()
        assert conv._w_version == before + 1
        out2 = net.forward(x)
        # The update changed the weights, so a correct (invalidated)
        # forward differs from the stale one...
        assert not np.array_equal(out2, out1)
        # ...and matches the reference computed from the *current* weights.
        expected = np.maximum(
            conv2d_reference(x, conv.w) + conv.bias[None, :, None, None], 0.0
        )
        np.testing.assert_allclose(out2, expected, rtol=1e-10, atol=1e-10)
