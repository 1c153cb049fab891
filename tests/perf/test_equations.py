"""The RBW equations — pinned to the paper's published values."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.units import GB
from repro.perf.equations import (
    RBW_DIRECT_MEM,
    _check_positive,
    rbw_ldm_reg_direct_conv,
    rbw_ldm_reg_gemm,
    rbw_ldm_reg_gemm_simd,
    rbw_mem_ldm_batch_plan,
    rbw_mem_ldm_batch_plan_promoted,
    rbw_mem_ldm_image_plan,
    rbw_mem_ldm_image_plan_promoted,
)


class TestTableIIIRBWValues:
    """The RBW column of Table III, exactly."""

    def test_image_plan_row1(self):
        assert rbw_mem_ldm_image_plan(16, 32, 128) / GB == pytest.approx(29.0, abs=0.05)

    def test_image_plan_row2(self):
        assert rbw_mem_ldm_image_plan(8, 32, 256) / GB == pytest.approx(23.2, abs=0.05)

    def test_batch_plan_row3(self):
        assert rbw_mem_ldm_batch_plan(3, 256, 128) / GB == pytest.approx(27.1, abs=0.05)

    def test_batch_plan_row4(self):
        assert rbw_mem_ldm_batch_plan(3, 384, 128) / GB == pytest.approx(25.7, abs=0.1)


class TestEq5:
    def test_paper_setting_is_23_2(self):
        assert rbw_ldm_reg_gemm_simd(16, 4) / GB == pytest.approx(23.2)

    def test_below_ldm_bandwidth(self):
        assert rbw_ldm_reg_gemm_simd(16, 4) < 46.4 * GB

    def test_simd_costs_more_than_plain(self):
        assert rbw_ldm_reg_gemm_simd(16, 4) > rbw_ldm_reg_gemm(16, 4)


class TestDirectMem:
    def test_value(self):
        assert RBW_DIRECT_MEM / GB == pytest.approx(139.20)

    def test_gload_efficiency_is_0_33_percent(self):
        assert (8 * GB / RBW_DIRECT_MEM) ** 2 == pytest.approx(0.0033, abs=2e-4)


class TestEq3:
    def test_depends_on_filter_size(self):
        small = rbw_ldm_reg_direct_conv(6, 6, 3, 3)
        large = rbw_ldm_reg_direct_conv(6, 6, 5, 5)
        assert small != large

    def test_block_smaller_than_filter_rejected(self):
        with pytest.raises(ValueError):
            rbw_ldm_reg_direct_conv(3, 3, 5, 5)


class TestMonotonicity:
    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_image_rbw_decreases_with_bigger_blocks(self, b_co):
        a = rbw_mem_ldm_image_plan(b_co, 32, 128)
        b = rbw_mem_ldm_image_plan(b_co + 1, 32, 128)
        assert b < a

    @given(st.integers(min_value=8, max_value=512))
    @settings(max_examples=30, deadline=None)
    def test_batch_rbw_decreases_with_bigger_batch(self, b):
        assert rbw_mem_ldm_batch_plan(3, 128, b + 8) < rbw_mem_ldm_batch_plan(3, 128, b)

    @given(
        st.integers(min_value=4, max_value=64).filter(lambda v: v % 4 == 0),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=40, deadline=None)
    def test_gemm_rbw_positive(self, rb_b, rb_no):
        assert rbw_ldm_reg_gemm(rb_b, rb_no) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            rbw_mem_ldm_image_plan(0, 32, 128)
        with pytest.raises(ValueError):
            rbw_mem_ldm_batch_plan(3, 128, 0)


class TestCheckPositive:
    @pytest.mark.parametrize(
        "value",
        [0, -3, 0.0, -1e-9, False, np.float64(-1.0), np.int64(0), np.array([4, 0])],
    )
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="b_co must be positive"):
            _check_positive(n_o=128, b_co=value)

    @pytest.mark.parametrize(
        "value", [1, 2.5, True, float("nan"), np.float64(3.0), np.array([1.0, np.nan])]
    )
    def test_accepts_positive_and_nan(self, value):
        _check_positive(b_co=value)


class TestPromotedEquations:
    """Our derived extensions for the Section IV-A DMA promotion."""

    def test_promoted_image_reduces_rbw(self):
        plain = rbw_mem_ldm_image_plan(16, 32, 128)
        promoted = rbw_mem_ldm_image_plan_promoted(16, 32, 128, k_c=3)
        assert promoted < plain

    def test_promoted_batch_reduces_rbw(self):
        plain = rbw_mem_ldm_batch_plan(3, 256, 128)
        promoted = rbw_mem_ldm_batch_plan_promoted(3, 256, 128, b_co=8)
        assert promoted < plain

    def test_promoted_image_approaches_plain_for_tiny_bco(self):
        # With bCo=1 the halo factor is Kc: no input saving at all.
        promoted = rbw_mem_ldm_image_plan_promoted(1, 32, 128, k_c=3)
        plain = rbw_mem_ldm_image_plan(1, 32, 128)
        assert promoted == pytest.approx(plain)
