"""Timing knobs are checked when an engine is built, not at evaluate()."""

import math

import pytest

from repro.core.algorithms import Im2colEngine, WinogradEngine, make_lowered_plan
from repro.core.conv import ConvolutionEngine
from repro.core.gemm_plan import GemmEngine, GemmParams, GemmPlan
from repro.core.params import ConvParams
from repro.core.plans import ImageSizeAwarePlan

PARAMS = ConvParams.from_output(ni=8, no=8, ro=4, co=4, kr=3, kc=3, b=8)

#: Engine constructors, each taking the two knobs as keywords.
ENGINES = {
    "conv": lambda **knobs: ConvolutionEngine(ImageSizeAwarePlan(PARAMS), **knobs),
    "gemm": lambda **knobs: GemmEngine(
        GemmPlan(GemmParams(m=16, n=16, k=16)), **knobs
    ),
    "im2col": lambda **knobs: Im2colEngine(
        make_lowered_plan("im2col", PARAMS), **knobs
    ),
    "winograd": lambda **knobs: WinogradEngine(
        make_lowered_plan("winograd", PARAMS), **knobs
    ),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("value", [-1.0, 0.0, 1.5, math.nan])
def test_stride_efficiency_rejected(engine, value):
    with pytest.raises(ValueError, match="stride_efficiency"):
        ENGINES[engine](stride_efficiency=value)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("value", [-0.1, 2.0, math.nan])
def test_overlap_contention_rejected(engine, value):
    with pytest.raises(ValueError, match="overlap_contention"):
        ENGINES[engine](overlap_contention=value)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_range_edges_accepted(engine):
    for stride, contention in ((1.0, 0.0), (1e-3, 1.0)):
        report = ENGINES[engine](
            stride_efficiency=stride, overlap_contention=contention
        ).evaluate()
        assert report.seconds > 0
