"""Conv-algorithm-zoo smoke — the `zoo`-marked tests (`make zoo`).

One tuned cross-family search on a Table III row: the zoo search must
never regress the direct-tuned result, its winner must round-trip through
the plan cache, and the communication-lower-bound oracle must emit a
schema-valid attainment row for every legal family of the shape.
"""

import numpy as np
import pytest

from repro.common.schema import validate
from repro.core.algorithms import engine_for_plan
from repro.core.params import ConvParams
from repro.core.reference import conv2d_reference
from repro.telemetry import oracle_report
from repro.tune import PlanCache, autotune

pytestmark = pytest.mark.zoo

#: Table III row (Ni=128, No=256) at the paper's 64x64 output, batch 128 —
#: the shape where the fused Winograd family beats the direct mapping.
ROW = ConvParams.from_output(ni=128, no=256, ro=64, co=64, kr=3, kc=3, b=128)


def test_cross_family_tuning_on_table3_row(tmp_path):
    cache = PlanCache(tmp_path)

    direct = autotune(ROW, cache=cache, top_k=4, jobs=2)
    zoo = autotune(ROW, cache=cache, top_k=4, jobs=2, algorithms="all")

    # The zoo search measures the direct winner too, so it can never lose.
    assert zoo.gflops >= direct.gflops
    # On this row the lowered Winograd family wins with a measured speedup.
    assert zoo.candidate.algorithm == "winograd"
    assert zoo.gflops > direct.gflops

    # The winner round-trips through the versioned cache...
    warm = autotune(ROW, cache=cache, top_k=4, algorithms="all")
    assert warm.source == "cache"
    assert warm.candidate.algorithm == "winograd"
    assert warm.plan.signature() == zoo.plan.signature()
    # ...under a different key than the direct-only entry.
    assert warm.cache_path != direct.cache_path

    # And the tuned lowered plan computes the right function.
    small = ConvParams.from_output(ni=8, no=8, ro=8, co=8, kr=3, kc=3, b=2)
    tuned_small = autotune(small, cache=cache, top_k=2, algorithms=("winograd",))
    rng = np.random.default_rng(3)
    x = rng.standard_normal(small.input_shape)
    w = rng.standard_normal(small.filter_shape)
    out, _ = engine_for_plan(tuned_small.plan).run(x, w)
    assert np.allclose(out, conv2d_reference(x, w))


def test_oracle_schema_on_table3_row():
    # A CG row strip of the Table III shape keeps the walk fast while
    # exercising the same planner decisions.
    strip = ROW.with_rows(16)
    report = oracle_report([strip])
    assert {row.algorithm for row in report.rows} == {
        "direct", "im2col", "winograd",
    }
    errors = validate(report.as_dict())
    assert errors == []
    for row in report.rows:
        assert not row.undercuts_bound
