"""LDM blocking: feasibility against the 64 KB scratchpad."""

import pytest

from repro.common.errors import LDMOverflowError, PlanError
from repro.core.ldm_blocking import (
    BatchBlocking,
    ImageBlocking,
    assert_fits_in_ldm,
    batch_plan_ldm_bytes,
    choose_batch_blocking,
    choose_image_blocking,
    fits_in_ldm,
    image_plan_ldm_bytes,
)
from repro.core.params import ConvParams


@pytest.fixture
def params():
    return ConvParams.from_output(ni=128, no=128, ro=64, co=64, kr=3, kc=3, b=128)


class TestRegionCalculation:
    def test_image_plan_regions_double_buffered(self, params):
        regions = image_plan_ldm_bytes(params, ImageBlocking(b_b=32, b_co=16))
        names = [name for name, _ in regions]
        assert "input.ping" in names and "input.pong" in names
        assert "filter.ping" in names
        assert "output" in names

    def test_image_plan_input_bytes(self, params):
        regions = dict(image_plan_ldm_bytes(params, ImageBlocking(b_b=32, b_co=16)))
        # Ni * bB * bCo / 64 CPEs * 8 bytes
        assert regions["input.ping"] == 128 * 32 * 16 // 64 * 8

    def test_promotion_grows_tiles(self, params):
        plain = dict(image_plan_ldm_bytes(params, ImageBlocking(b_b=32, b_co=16)))
        promoted = dict(
            image_plan_ldm_bytes(
                params, ImageBlocking(b_b=32, b_co=16, promote_input=True,
                                      promote_filter=True)
            )
        )
        assert promoted["input.ping"] > plain["input.ping"]
        assert promoted["filter.ping"] == plain["filter.ping"] * params.kc

    def test_batch_plan_output_grows_with_bco(self, params):
        small = dict(batch_plan_ldm_bytes(params, BatchBlocking(b_co=4)))
        big = dict(batch_plan_ldm_bytes(params, BatchBlocking(b_co=8)))
        assert big["output"] == 2 * small["output"]


class TestFeasibility:
    def test_small_blocking_fits(self, params):
        regions = image_plan_ldm_bytes(params, ImageBlocking(b_b=8, b_co=4))
        assert fits_in_ldm(regions)

    def test_huge_blocking_rejected(self, params):
        regions = image_plan_ldm_bytes(params, ImageBlocking(b_b=128, b_co=128))
        assert not fits_in_ldm(regions)
        with pytest.raises(LDMOverflowError):
            assert_fits_in_ldm(regions)

    def test_paper_table3_blockings_fit(self, params):
        for b_co in (8, 16):
            assert fits_in_ldm(
                image_plan_ldm_bytes(params, ImageBlocking(b_b=32, b_co=b_co))
            )


class TestChoosers:
    def test_image_choice_fits(self, params):
        blocking = choose_image_blocking(params)
        assert fits_in_ldm(image_plan_ldm_bytes(params, blocking))

    def test_image_choice_never_promotes_input(self, params):
        # Input promotion is opt-in (it beats Eq. 1's model); see plans.py.
        assert not choose_image_blocking(params).promote_input

    def test_batch_choice_fits(self, params):
        blocking = choose_batch_blocking(params)
        assert fits_in_ldm(batch_plan_ldm_bytes(params, blocking))

    def test_batch_choice_maximal(self, params):
        blocking = choose_batch_blocking(params)
        # Doubling bCo with the same promotion must not fit (maximality).
        bigger = BatchBlocking(
            b_co=blocking.b_co * 2, promote_filter=blocking.promote_filter
        )
        assert not fits_in_ldm(batch_plan_ldm_bytes(params, bigger))

    def test_batch_infeasible_for_giant_batch(self):
        huge = ConvParams.from_output(ni=256, no=256, ro=8, co=8, kr=3, kc=3, b=65536)
        with pytest.raises(PlanError):
            choose_batch_blocking(huge)

    def test_image_chooser_handles_small_problems(self):
        tiny = ConvParams(ni=8, no=8, ri=6, ci=6, kr=3, kc=3, b=8)
        blocking = choose_image_blocking(tiny)
        assert fits_in_ldm(image_plan_ldm_bytes(tiny, blocking))


class TestValidation:
    def test_blocking_positive(self):
        with pytest.raises(ValueError):
            ImageBlocking(b_b=0, b_co=4)
        with pytest.raises(ValueError):
            BatchBlocking(b_co=0)
