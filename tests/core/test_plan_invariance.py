"""Blocking invariance: every legal blocking computes the same layer.

The strongest correctness property the plan machinery has: the functional
output must be *identical* (not just close) across plan families, blocking
sizes, promotion flags and Ni blocking, because they all walk the same
multiply-add set in different orders of tiles (each output element's
reduction order only changes across ni-blocks, where addition is
reassociated — hence allclose, not array_equal, for those).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.common.errors import LDMOverflowError, PlanError
from repro.core.conv import ConvolutionEngine
from repro.core.ldm_blocking import BatchBlocking, ImageBlocking
from repro.core.params import ConvParams
from repro.core.plans import BatchSizeAwarePlan, ImageSizeAwarePlan
from repro.core.reference import conv2d_reference


PARAMS = ConvParams(ni=16, no=8, ri=9, ci=9, kr=3, kc=3, b=8)


@st.composite
def image_blockings(draw):
    return ImageBlocking(
        b_b=draw(st.sampled_from([4, 8])),
        b_co=draw(st.sampled_from([2, 4, 7])),
        promote_input=draw(st.booleans()),
        promote_filter=draw(st.booleans()),
        b_ni=draw(st.sampled_from([None, 4, 8, 16])),
    )


@st.composite
def batch_blockings(draw):
    return BatchBlocking(
        b_co=draw(st.sampled_from([1, 2, 3, 7])),
        promote_filter=draw(st.booleans()),
        b_ni=draw(st.sampled_from([None, 4, 8])),
    )


class TestBlockingInvariance:
    @given(image_blockings(), st.integers(min_value=0, max_value=99))
    @settings(max_examples=25, deadline=None)
    def test_image_plan_invariant_under_blocking(self, blocking, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(PARAMS.input_shape)
        w = rng.standard_normal(PARAMS.filter_shape)
        try:
            plan = ImageSizeAwarePlan(PARAMS, blocking=blocking)
        except (PlanError, LDMOverflowError):
            return  # infeasible blocking: rejected, not wrong
        out, report = ConvolutionEngine(plan).run(x, w)
        assert np.allclose(out, conv2d_reference(x, w))
        assert report.flops == PARAMS.flops()

    @given(batch_blockings(), st.integers(min_value=0, max_value=99))
    @settings(max_examples=25, deadline=None)
    def test_batch_plan_invariant_under_blocking(self, blocking, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(PARAMS.input_shape)
        w = rng.standard_normal(PARAMS.filter_shape)
        try:
            plan = BatchSizeAwarePlan(PARAMS, blocking=blocking)
        except (PlanError, LDMOverflowError):
            return
        out, _ = ConvolutionEngine(plan).run(x, w)
        assert np.allclose(out, conv2d_reference(x, w))

    @given(
        st.sampled_from([2, 4, 7]),
        st.sampled_from([2, 4, 7]),
        st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=15, deadline=None)
    def test_families_agree_exactly_without_ni_blocking(self, bco_a, bco_b, seed):
        """Without reassociation (full Ni), different column blockings of
        the same family produce bit-identical outputs."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(PARAMS.input_shape)
        w = rng.standard_normal(PARAMS.filter_shape)
        plan_a = BatchSizeAwarePlan(PARAMS, blocking=BatchBlocking(b_co=bco_a))
        plan_b = BatchSizeAwarePlan(PARAMS, blocking=BatchBlocking(b_co=bco_b))
        out_a, _ = ConvolutionEngine(plan_a).run(x, w)
        out_b, _ = ConvolutionEngine(plan_b).run(x, w)
        assert np.array_equal(out_a, out_b)
