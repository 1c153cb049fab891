"""The conv algorithm zoo: legality, parity, engine contracts, serialization.

The engine-level im2col and Winograd families must compute exactly the
function the direct mapping computes — on awkward shapes (non-square
outputs, channel counts the 8x8 mesh does not divide, batch=1), on every
backend tier, and with the fused bias/activation epilogue.  Illegal
(algorithm, shape) pairs must be refused at plan time and never enumerated
by the tuner.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import PlanError
from repro.core.algorithms import (
    ALGORITHMS,
    algorithm_legal,
    engine_for_plan,
    enumerate_gemm_blockings,
    legal_algorithms,
    make_lowered_plan,
    resolve_algorithms,
)
from repro.core.conv import clear_timing_cache
from repro.core.ldm_blocking import ImageBlocking
from repro.core.params import ConvParams
from repro.core.reference import conv2d_reference
from repro.core.serialize import plan_from_dict, plan_to_dict, plan_to_json, plan_from_json
from repro.tune.space import Candidate, enumerate_candidates

LOWERED = ("im2col", "winograd")

#: Deliberately awkward shapes: non-square output, No/Ni the mesh width
#: does not divide, batch 1, and a 5x5 filter (im2col only).
AWKWARD = [
    ConvParams.from_output(ni=8, no=8, ro=9, co=7, kr=3, kc=3, b=3),
    ConvParams.from_output(ni=4, no=10, ro=6, co=12, kr=3, kc=3, b=1),
    ConvParams.from_output(ni=4, no=6, ro=8, co=8, kr=5, kc=5, b=2),
]


def _run(algorithm, params, backend, bias=None, activation=None):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(params.input_shape)
    w = rng.standard_normal(params.filter_shape)
    plan = make_lowered_plan(algorithm, params)
    engine = engine_for_plan(plan, backend=backend)
    out, report = engine.run(x, w, bias=bias, activation=activation)
    expected = conv2d_reference(x, w)
    if bias is not None:
        expected = expected + bias[None, :, None, None]
    if activation == "relu":
        expected = np.maximum(expected, 0.0)
    return out, expected, report


class TestLegality:
    def test_winograd_needs_3x3(self):
        p5 = ConvParams.from_output(ni=4, no=4, ro=8, co=8, kr=5, kc=5, b=2)
        assert not algorithm_legal("winograd", p5)
        assert legal_algorithms(p5) == ("direct", "im2col")

    def test_winograd_legal_on_3x3_stride_1(self):
        p3 = ConvParams.from_output(ni=4, no=4, ro=8, co=8, kr=3, kc=3, b=2)
        assert algorithm_legal("winograd", p3)
        assert legal_algorithms(p3) == ALGORITHMS

    def test_stride_2_is_illegal_for_every_algorithm(self):
        p3 = ConvParams.from_output(ni=4, no=4, ro=8, co=8, kr=3, kc=3, b=2)
        for algo in ALGORITHMS:
            assert not algorithm_legal(algo, p3, stride=2)
        assert legal_algorithms(p3, stride=2) == ()

    def test_unknown_algorithm_raises(self):
        p3 = ConvParams.from_output(ni=4, no=4, ro=8, co=8, kr=3, kc=3, b=2)
        with pytest.raises(ValueError, match="unknown algorithm"):
            algorithm_legal("fft", p3)

    def test_illegal_plan_refused(self):
        p5 = ConvParams.from_output(ni=4, no=4, ro=8, co=8, kr=5, kc=5, b=2)
        with pytest.raises(PlanError):
            make_lowered_plan("winograd", p5)

    def test_resolve_algorithms(self):
        assert resolve_algorithms(None) == ("direct",)
        assert resolve_algorithms("all") == ALGORITHMS
        assert resolve_algorithms("winograd") == ("winograd",)
        assert resolve_algorithms(("winograd", "direct")) == (
            "direct",
            "winograd",
        )
        with pytest.raises(ValueError):
            resolve_algorithms(("direct", "fft"))
        with pytest.raises(ValueError):
            resolve_algorithms(())


class TestParity:
    @pytest.mark.parametrize("params", AWKWARD, ids=lambda p: p.describe())
    @pytest.mark.parametrize("backend", ["numpy", "mesh-fast"])
    def test_lowered_matches_reference(self, params, backend):
        for algo in LOWERED:
            if not algorithm_legal(algo, params):
                continue
            out, expected, _ = _run(algo, params, backend)
            np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("algo", LOWERED)
    def test_full_mesh_simulation_parity(self, algo):
        params = ConvParams.from_output(ni=8, no=8, ro=9, co=7, kr=3, kc=3, b=3)
        out, expected, _ = _run(algo, params, "mesh")
        np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-10)

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=4, max_value=9),
        st.integers(min_value=4, max_value=9),
        st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=20, deadline=None)
    def test_winograd_matches_reference_property(self, ni, no, ri, ci, seed):
        """Odd and even output extents, tiny channel counts: the 2x2 output
        tiling must pad and crop exactly."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, ni, ri, ci))
        w = rng.standard_normal((no, ni, 3, 3))
        params = ConvParams(ni=ni, no=no, ri=ri, ci=ci, kr=3, kc=3, b=2)
        plan = make_lowered_plan("winograd", params)
        out, _ = engine_for_plan(plan, backend="numpy").run(x, w)
        np.testing.assert_allclose(
            out, conv2d_reference(x, w), rtol=1e-10, atol=1e-10
        )

    @pytest.mark.parametrize("algo", LOWERED)
    def test_bias_relu_epilogue(self, algo):
        params = ConvParams.from_output(ni=8, no=8, ro=8, co=8, kr=3, kc=3, b=2)
        bias = np.linspace(-1.0, 1.0, params.no)
        out, expected, _ = _run(
            algo, params, "numpy", bias=bias, activation="relu"
        )
        np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-10)


class TestEngineContracts:
    def test_direct_equivalent_flops(self):
        """Lowered reports budget the layer's direct flops, so Gflop/s
        compares across families (Winograd's arithmetic saving shows up as
        rate, not as a smaller numerator)."""
        params = ConvParams.from_output(ni=8, no=8, ro=8, co=8, kr=3, kc=3, b=4)
        for algo in LOWERED:
            plan = make_lowered_plan(algo, params)
            report = engine_for_plan(plan).evaluate()
            assert report.flops == params.flops()
            assert report.seconds > 0
            assert report.bytes_get > 0 and report.bytes_put > 0

    def test_rejects_fault_plan(self):
        from repro.faults import FaultPlan, FaultSpec

        params = ConvParams.from_output(ni=8, no=8, ro=8, co=8, kr=3, kc=3, b=4)
        plan = make_lowered_plan("im2col", params)
        with pytest.raises(PlanError, match="degraded"):
            engine_for_plan(plan, fault_plan=FaultPlan(FaultSpec(seed=0)))

    def test_rejects_fused_pool(self):
        params = ConvParams.from_output(ni=8, no=8, ro=8, co=8, kr=3, kc=3, b=4)
        plan = make_lowered_plan("winograd", params)
        with pytest.raises(PlanError, match="fused pooling"):
            engine_for_plan(plan, fused_pool=2)

    def test_counters_and_spans(self):
        from repro.telemetry import Telemetry

        params = ConvParams.from_output(ni=8, no=8, ro=8, co=8, kr=3, kc=3, b=2)
        telemetry = Telemetry()
        rng = np.random.default_rng(0)
        plan = make_lowered_plan("winograd", params)
        engine = engine_for_plan(plan, telemetry=telemetry)
        engine.run(
            rng.standard_normal(params.input_shape),
            rng.standard_normal(params.filter_shape),
        )
        counters = telemetry.counters.as_dict()
        assert counters["engine.runs"] == 1
        # A lowered run returns its evaluate() report, counting one walk.
        assert counters["engine.evaluations"] == 1
        assert counters["engine.bytes_get"] > 0
        assert counters["engine.flops"] == params.flops()

    def test_clear_timing_cache_drops_lowered_reports(self):
        from repro.telemetry import Telemetry

        params = ConvParams.from_output(ni=8, no=8, ro=8, co=8, kr=3, kc=3, b=2)
        plan = make_lowered_plan("im2col", params)
        engine_for_plan(plan).evaluate()
        clear_timing_cache()
        telemetry = Telemetry()
        engine_for_plan(plan, telemetry=telemetry).evaluate()
        assert telemetry.counters.get("engine.timing_cache.misses") == 1
        assert telemetry.counters.get("engine.timing_cache.hits") == 0

    def test_gemm_blocking_enumeration_fits_and_dedupes(self):
        params = ConvParams.from_output(ni=16, no=16, ro=16, co=16, kr=3, kc=3, b=8)
        for algo in LOWERED:
            blockings = enumerate_gemm_blockings(algo, params)
            assert blockings, algo
            assert len(set(blockings)) == len(blockings)
        p5 = ConvParams.from_output(ni=4, no=4, ro=8, co=8, kr=5, kc=5, b=2)
        assert enumerate_gemm_blockings("winograd", p5) == []


class TestSerialization:
    @pytest.mark.parametrize("algo", LOWERED)
    def test_plan_round_trip(self, algo):
        params = ConvParams.from_output(ni=8, no=8, ro=8, co=8, kr=3, kc=3, b=4)
        plan = make_lowered_plan(algo, params)
        data = plan_to_dict(plan)
        assert data["algorithm"] == algo
        assert data["blocking"]["kind"] == "gemm"
        rebuilt = plan_from_dict(data)
        assert rebuilt.algorithm == algo
        assert rebuilt.blocking == plan.blocking
        assert plan_from_json(plan_to_json(plan)).signature() == plan.signature()

    def test_direct_plan_dict_has_no_algorithm_field(self):
        """Pre-zoo direct plan dicts must stay byte-identical."""
        from repro.core.plans import ImageSizeAwarePlan

        params = ConvParams.from_output(ni=16, no=16, ro=16, co=16, kr=3, kc=3, b=8)
        data = plan_to_dict(ImageSizeAwarePlan(params))
        assert "algorithm" not in data

    def test_candidate_defaults_to_direct(self):
        cand = Candidate(
            family="image-size-aware",
            blocking=ImageBlocking(b_b=8, b_co=16, promote_filter=True),
        )
        assert cand.algorithm == "direct"


class TestEnumeration:
    def test_default_enumeration_is_direct_only(self):
        params = ConvParams.from_output(ni=16, no=16, ro=16, co=16, kr=3, kc=3, b=8)
        cands = enumerate_candidates(params)
        assert all(c.algorithm == "direct" for c in cands)

    def test_zoo_enumeration_adds_lowered_families(self):
        params = ConvParams.from_output(ni=16, no=16, ro=16, co=16, kr=3, kc=3, b=8)
        cands = enumerate_candidates(params, algorithms="all")
        algos = {c.algorithm for c in cands}
        assert algos == {"direct", "im2col", "winograd"}

    def test_winograd_never_enumerated_for_5x5(self):
        p5 = ConvParams.from_output(ni=8, no=8, ro=12, co=12, kr=5, kc=5, b=4)
        cands = enumerate_candidates(p5, algorithms="all")
        algos = {c.algorithm for c in cands}
        assert "winograd" not in algos
        assert "im2col" in algos

    def test_lowered_only_search(self):
        params = ConvParams.from_output(ni=16, no=16, ro=16, co=16, kr=3, kc=3, b=8)
        cands = enumerate_candidates(params, algorithms=("winograd",))
        assert cands
        assert all(c.algorithm == "winograd" for c in cands)
        # every candidate builds into a working plan
        plan = cands[0].build(params)
        assert plan.algorithm == "winograd"
