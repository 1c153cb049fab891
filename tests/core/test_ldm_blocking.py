"""LDM blocking: feasibility against the 64 KB scratchpad."""

import dataclasses
import itertools

import pytest

from repro.common.errors import LDMOverflowError, PlanError
from repro.core.ldm_blocking import (
    BatchBlocking,
    ImageBlocking,
    _divisor_candidates,
    _image_grid,
    _ni_candidates,
    assert_fits_in_ldm,
    batch_plan_ldm_bytes,
    choose_batch_blocking,
    choose_image_blocking,
    fits_in_ldm,
    image_plan_ldm_bytes,
)
from repro.core.params import ConvParams
from repro.experiments.configs import fig8_center, fig8_left, fig8_right
from repro.hw.spec import DEFAULT_SPEC


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


def _reference_image_choice(params, spec):
    """The image chooser as a loop over ``fits_in_ldm``, kept as the oracle."""
    for b_ni in _ni_candidates(params.ni):
        candidates = []
        for b_b in _divisor_candidates(min(params.b, 256), 8):
            for b_co in _divisor_candidates(min(params.co, 128), 4):
                for promote_filter in (True, False):
                    blocking = ImageBlocking(b_b, b_co, False, promote_filter, b_ni)
                    if fits_in_ldm(image_plan_ldm_bytes(params, blocking, spec), spec):
                        candidates.append((b_b * b_co, b_co, blocking))
                        break
        if candidates:
            candidates.sort(key=lambda t: (t[0], t[1], t[2].promote_filter))
            return candidates[-1][2]
    raise PlanError(f"no image-size-aware blocking fits LDM for {params.describe()}")


def _reference_batch_choice(params, spec):
    """The batch chooser as a loop over ``fits_in_ldm``, kept as the oracle."""
    for b_ni in _ni_candidates(params.ni):
        candidates = []
        for b_co in _divisor_candidates(min(params.co, 128), 1):
            for promote in (True, False):
                blocking = BatchBlocking(b_co, promote, b_ni)
                if fits_in_ldm(batch_plan_ldm_bytes(params, blocking, spec), spec):
                    candidates.append(blocking)
                    break
        if candidates:
            return max(candidates, key=lambda blk: (blk.b_co, blk.promote_filter))
    raise PlanError(
        f"no batch-size-aware blocking fits LDM for {params.describe()} "
        f"(batch {params.b} too large to keep whole)"
    )


def _choice(choose, params, spec):
    try:
        return choose(params, spec)
    except PlanError as exc:
        return f"PlanError: {exc}"


#: Shapes from one-pixel to paper-scale, with and without feasible blockings.
_CHOOSER_SHAPES = [
    ConvParams.from_output(ni=ni, no=no, ro=ro, co=co, kr=k, kc=k, b=b)
    for ni, no, (ro, co), k, b in itertools.product(
        (8, 24, 64, 256, 384),
        (8, 64, 384),
        ((1, 1), (4, 7), (16, 64), (3, 200)),
        (1, 3, 5),
        (1, 8, 128, 384),
    )
] + [ConvParams.from_output(ni=256, no=256, ro=8, co=8, kr=3, kc=3, b=65536)]


class TestChoosersSelectFromTheGrid:
    """The choosers pick from the shared LDM grid exactly what the
    per-blocking ``fits_in_ldm`` loops picked, PlanError included."""

    @pytest.mark.parametrize("ldm_kib", [16, 64, 256])
    def test_same_choice_as_the_loops(self, ldm_kib):
        spec = dataclasses.replace(DEFAULT_SPEC, ldm_bytes=ldm_kib * 1024)
        errors = 0
        for params in _CHOOSER_SHAPES:
            for choose, reference in (
                (choose_image_blocking, _reference_image_choice),
                (choose_batch_blocking, _reference_batch_choice),
            ):
                expected = _choice(reference, params, spec)
                assert _choice(choose, params, spec) == expected, (params, choose)
                errors += isinstance(expected, str)
        assert 0 < errors < 2 * len(_CHOOSER_SHAPES)

    def test_fig8_shapes_and_strips(self):
        shapes = fig8_left() + fig8_center() + fig8_right()
        for params in shapes + [p.with_rows(p.ro // 4) for p in shapes]:
            assert choose_image_blocking(params) == _reference_image_choice(
                params, DEFAULT_SPEC
            )
            assert choose_batch_blocking(params) == _reference_batch_choice(
                params, DEFAULT_SPEC
            )

    def test_grids_are_shared_and_read_only(self, params):
        points, fits = _image_grid(params, DEFAULT_SPEC)
        assert _image_grid(params, DEFAULT_SPEC)[0] is points
        with pytest.raises(ValueError):
            points[0, 0] = 1
        with pytest.raises(ValueError):
            fits[0] = not fits[0]
