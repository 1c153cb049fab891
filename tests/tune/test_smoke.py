"""Fast autotune smoke — the `tune`-marked tests (`make tune`).

One tiny shape, cold tune into a throwaway cache, warm hit, and bit-exact
output from the tuned plan.  Everything here must stay in the
single-second range; the exhaustive behavior tests live in
``test_tuner.py``.
"""

import numpy as np
import pytest

from repro.core.conv import ConvolutionEngine
from repro.core.params import ConvParams
from repro.core.reference import conv2d_reference
from repro.tune import PlanCache, autotune

pytestmark = pytest.mark.tune


def test_tune_smoke(tmp_path):
    params = ConvParams(ni=16, no=16, ri=6, ci=6, kr=3, kc=3, b=8)
    cache = PlanCache(tmp_path)

    cold = autotune(params, cache=cache, top_k=2)
    assert cold.source == "tuned"
    assert cold.measured >= 1
    assert cold.gflops > 0

    warm = autotune(params, cache=cache, top_k=2)
    assert warm.source == "cache"
    assert warm.measured == 0
    assert warm.plan.signature() == cold.plan.signature()

    rng = np.random.default_rng(7)
    x = rng.standard_normal(params.input_shape)
    w = rng.standard_normal(params.filter_shape)
    out, _ = ConvolutionEngine(warm.plan).run(x, w)
    assert np.allclose(out, conv2d_reference(x, w))
