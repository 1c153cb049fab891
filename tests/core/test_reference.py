"""Reference convolutions: the three oracles must agree, gradients check."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.reference import (
    conv2d_backward_reference,
    conv2d_im2col,
    conv2d_naive,
    conv2d_reference,
)


def _random_case(rng, b=2, ni=3, no=4, ri=6, ci=7, kr=3, kc=2):
    x = rng.standard_normal((b, ni, ri, ci))
    w = rng.standard_normal((no, ni, kr, kc))
    return x, w


class TestForwardOracles:
    def test_reference_matches_naive(self, rng):
        x, w = _random_case(rng)
        assert np.allclose(conv2d_reference(x, w), conv2d_naive(x, w))

    def test_im2col_matches_reference(self, rng):
        x, w = _random_case(rng)
        assert np.allclose(conv2d_im2col(x, w), conv2d_reference(x, w))

    def test_identity_filter(self):
        x = np.arange(2 * 1 * 3 * 3, dtype=float).reshape(2, 1, 3, 3)
        w = np.ones((1, 1, 1, 1))
        assert np.array_equal(conv2d_reference(x, w), x)

    def test_output_shape(self, rng):
        x, w = _random_case(rng, ri=10, ci=8, kr=3, kc=5)
        assert conv2d_reference(x, w).shape == (2, 4, 8, 4)

    def test_channel_mismatch_rejected(self, rng):
        x = rng.standard_normal((1, 3, 5, 5))
        w = rng.standard_normal((2, 4, 3, 3))
        with pytest.raises(ValueError):
            conv2d_reference(x, w)

    def test_wrong_rank_rejected(self, rng):
        with pytest.raises(ValueError):
            conv2d_reference(rng.standard_normal((3, 5, 5)), rng.standard_normal((1, 3, 3, 3)))

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=30, deadline=None)
    def test_oracles_agree_property(self, b, ni, no, kr, kc, extra_r, extra_c):
        rng = np.random.default_rng(b * 100 + ni * 10 + no)
        ri, ci = kr + extra_r, kc + extra_c
        x = rng.standard_normal((b, ni, ri, ci))
        w = rng.standard_normal((no, ni, kr, kc))
        ref = conv2d_reference(x, w)
        assert np.allclose(ref, conv2d_naive(x, w))
        assert np.allclose(ref, conv2d_im2col(x, w))

    def test_linearity(self, rng):
        x, w = _random_case(rng)
        assert np.allclose(
            conv2d_reference(2.0 * x, w), 2.0 * conv2d_reference(x, w)
        )

    def test_additivity_in_filters(self, rng):
        x, w1 = _random_case(rng)
        _, w2 = _random_case(np.random.default_rng(5))
        assert np.allclose(
            conv2d_reference(x, w1 + w2),
            conv2d_reference(x, w1) + conv2d_reference(x, w2),
        )


class TestBackward:
    def test_gradient_shapes(self, rng):
        x, w = _random_case(rng)
        out = conv2d_reference(x, w)
        gx, gw = conv2d_backward_reference(x, w, np.ones_like(out))
        assert gx.shape == x.shape
        assert gw.shape == w.shape

    def test_grad_w_numeric(self, rng):
        x, w = _random_case(rng, b=1, ni=2, no=2, ri=4, ci=4, kr=2, kc=2)
        g = rng.standard_normal(conv2d_reference(x, w).shape)
        _, gw = conv2d_backward_reference(x, w, g)
        eps = 1e-6
        for idx in [(0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 1, 0)]:
            w_plus = w.copy()
            w_plus[idx] += eps
            w_minus = w.copy()
            w_minus[idx] -= eps
            numeric = (
                np.sum(conv2d_reference(x, w_plus) * g)
                - np.sum(conv2d_reference(x, w_minus) * g)
            ) / (2 * eps)
            assert gw[idx] == pytest.approx(numeric, rel=1e-5, abs=1e-7)

    def test_grad_x_numeric(self, rng):
        x, w = _random_case(rng, b=1, ni=2, no=2, ri=4, ci=4, kr=2, kc=2)
        g = rng.standard_normal(conv2d_reference(x, w).shape)
        gx, _ = conv2d_backward_reference(x, w, g)
        eps = 1e-6
        for idx in [(0, 0, 0, 0), (0, 1, 2, 3), (0, 0, 3, 1)]:
            x_plus = x.copy()
            x_plus[idx] += eps
            x_minus = x.copy()
            x_minus[idx] -= eps
            numeric = (
                np.sum(conv2d_reference(x_plus, w) * g)
                - np.sum(conv2d_reference(x_minus, w) * g)
            ) / (2 * eps)
            assert gx[idx] == pytest.approx(numeric, rel=1e-5, abs=1e-7)

    def test_grad_shape_mismatch_rejected(self, rng):
        x, w = _random_case(rng)
        with pytest.raises(ValueError):
            conv2d_backward_reference(x, w, np.zeros((1, 1, 1, 1)))


def _einsum_backward(x, w, grad_out):
    """The backward pass as per-tap ``einsum`` contractions: the oracle.

    ``conv2d_backward_reference`` makes the two ``matmul`` calls numpy's
    ``einsum(optimize=True)`` lowers each tap to, so it must keep these
    bits exactly wherever no index has size 1.
    """
    b, ni, ri, ci = x.shape
    no, _, kr, kc = w.shape
    ro, co = ri - kr + 1, ci - kc + 1
    grad_x = np.zeros_like(x, dtype=np.float64)
    grad_w = np.zeros_like(w, dtype=np.float64)
    for dkr in range(kr):
        for dkc in range(kc):
            window = x[:, :, dkr : dkr + ro, dkc : dkc + co]
            grad_w[:, :, dkr, dkc] = np.einsum(
                "borc,bnrc->on", grad_out, window, optimize=True
            )
            grad_x[:, :, dkr : dkr + ro, dkc : dkc + co] += np.einsum(
                "borc,on->bnrc", grad_out, w[:, :, dkr, dkc], optimize=True
            )
    return grad_x, grad_w


def _backward_case(rng, b, ni, no, ro, co, kr, kc):
    """Random operands whose upstream gradient passed a ReLU: about a third
    of it is zero, with the sign of the gradient it masked, so products of
    either zero occur."""
    x = rng.standard_normal((b, ni, ro + kr - 1, co + kc - 1))
    w = rng.standard_normal((no, ni, kr, kc))
    grad_out = rng.standard_normal((b, no, ro, co))
    grad_out *= rng.random(grad_out.shape) >= 1 / 3
    return x, w, grad_out


def _bits(a):
    return a.shape, a.view(np.int64).tobytes()


class TestBackwardAgainstEinsum:
    """The einsum-free backward keeps the einsum form's bits."""

    @given(
        b=st.integers(2, 16),
        ni=st.integers(2, 8),
        no=st.integers(2, 8),
        ro=st.integers(1, 6),
        co=st.integers(1, 6),
        kr=st.integers(1, 5),
        kc=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical(self, b, ni, no, ro, co, kr, kc, seed):
        assume(ro * co >= 2)
        x, w, g = _backward_case(np.random.default_rng(seed), b, ni, no, ro, co, kr, kc)
        gx, gw = conv2d_backward_reference(x, w, g)
        ex, ew = _einsum_backward(x, w, g)
        assert _bits(gx) == _bits(ex)
        assert _bits(gw) == _bits(ew)
        assert gx.flags.c_contiguous

    @pytest.mark.parametrize(
        "ni, no, ri", [(8, 16, 12), (16, 16, 10)], ids=["conv1", "conv2"]
    )
    def test_train_conv_shapes(self, ni, no, ri, rng):
        """The benchmark net's convolutions, at its per-node batch of 16."""
        x, w, g = _backward_case(rng, 16, ni, no, ri - 2, ri - 2, 3, 3)
        gx, gw = conv2d_backward_reference(x, w, g)
        ex, ew = _einsum_backward(x, w, g)
        assert _bits(gx) == _bits(ex)
        assert _bits(gw) == _bits(ew)

    @pytest.mark.parametrize(
        "b, ni, no, ro, co",
        [
            (4, 1, 6, 5, 4),
            (4, 6, 1, 5, 4),
            (1, 6, 5, 4, 3),
            (5, 6, 4, 1, 1),
            (1, 6, 5, 1, 1),
            (1, 1, 1, 1, 1),
        ],
        ids=["ni1", "no1", "b1", "rc1", "brc1", "all1"],
    )
    def test_size_one_indices_agree_to_rounding(self, b, ni, no, ro, co, rng):
        """Where an index has size 1, einsum drops it and hands ``matmul``
        other layouts (or multiplies), so only the values must agree.  An
        entry sums at most 80 products of standard normals (B * Ro * Co
        for grad_w, No * Kr * Kc for grad_x): two summation orders differ
        by under 80 * 2**-52 times its absolute sum, well inside ``atol``."""
        for kr, kc in ((1, 1), (3, 2)):
            x, w, g = _backward_case(rng, b, ni, no, ro, co, kr, kc)
            gx, gw = conv2d_backward_reference(x, w, g)
            ex, ew = _einsum_backward(x, w, g)
            np.testing.assert_allclose(gx, ex, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(gw, ew, rtol=1e-12, atol=1e-12)
