"""Guarded execution: fallback ladder, numeric guards, fenced replans."""

import numpy as np
import pytest

from repro.common.errors import PlanError, SimulationError
from repro.core.conv import ConvolutionEngine, clear_timing_cache, effective_mesh_size
from repro.core.guarded import FALLBACK_LADDERS, GuardedConvolutionEngine
from repro.core.params import ConvParams
from repro.core.planner import plan_convolution
from repro.core.plans import make_plan
from repro.core.reference import conv2d_reference
from repro.faults import FaultPlan, FaultSpec

PARAMS = ConvParams.from_output(ni=32, no=32, ro=8, co=8, kr=3, kc=3, b=4)


def _plan():
    return plan_convolution(PARAMS).plan


def _data(seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal(PARAMS.input_shape),
        rng.standard_normal(PARAMS.filter_shape),
    )


class TestEffectiveMeshSize:
    def test_no_fences_full_mesh(self):
        assert effective_mesh_size(8, frozenset()) == 8

    def test_two_fences_shrink_to_divisor(self):
        # 2 fenced CPEs in distinct rows/cols leave bound 6; the largest
        # divisor of 8 within it is 4 (divisibility preserves blocking).
        assert effective_mesh_size(8, {(1, 2), (6, 6)}) == 4

    def test_same_row_fences_cost_one(self):
        assert effective_mesh_size(8, {(3, 0), (3, 7)}) == 4

    def test_whole_mesh_fenced(self):
        everything = {(r, c) for r in range(8) for c in range(8)}
        assert effective_mesh_size(8, everything) == 0


class TestFallbackLadder:
    def test_unknown_backend_rejected(self):
        with pytest.raises(PlanError):
            GuardedConvolutionEngine(_plan(), backend="fpga")

    def test_healthy_run_stays_on_requested_tier(self):
        engine = GuardedConvolutionEngine(_plan(), backend="mesh-fast")
        x, w = _data()
        out, timing = engine.run(x, w)
        assert engine.last_outcome.backend_used == "mesh-fast"
        assert not engine.last_outcome.degraded
        np.testing.assert_allclose(out, conv2d_reference(x, w), rtol=1e-10, atol=1e-10)
        assert timing.seconds > 0

    def test_bus_faults_demote_to_numpy(self):
        plan = FaultPlan(FaultSpec(bus_stall_rate=1.0))
        engine = GuardedConvolutionEngine(
            _plan(), backend="mesh-fast", fault_plan=plan
        )
        x, w = _data()
        out, _ = engine.run(x, w)
        assert engine.last_outcome.backend_used == "numpy"
        # Both mesh tiers were abandoned, and the ledger says why.
        assert len(engine.last_outcome.degradations) == 2
        assert plan.ledger.counts()["guard/fallback"] == 2
        np.testing.assert_allclose(out, conv2d_reference(x, w), rtol=1e-10, atol=1e-10)

    def test_all_cpes_fenced_reach_reference(self):
        # With zero healthy CPEs, no simulated engine (mesh or numpy) can
        # even construct — only the terminal reference tier can answer.
        everything = tuple((r, c) for r in range(8) for c in range(8))
        plan = FaultPlan(FaultSpec(fenced_cpes=everything))
        engine = GuardedConvolutionEngine(_plan(), backend="mesh", fault_plan=plan)
        x, w = _data()
        out, _ = engine.run(x, w)
        assert engine.last_outcome.backend_used == "reference"
        np.testing.assert_allclose(out, conv2d_reference(x, w), rtol=1e-10, atol=1e-10)

    def test_reference_terminal_tier(self):
        engine = GuardedConvolutionEngine(_plan(), backend="numpy")

        class _Broken:
            def run(self, *args, **kwargs):
                raise SimulationError("injected numpy failure")

            def evaluate(self):
                raise SimulationError("injected numpy failure")

        engine._engines["numpy"] = _Broken()
        x, w = _data()
        out, _ = engine.run(x, w)
        assert engine.last_outcome.backend_used == "reference"
        np.testing.assert_allclose(out, conv2d_reference(x, w), rtol=1e-12, atol=1e-12)

    def test_programming_errors_propagate(self):
        engine = GuardedConvolutionEngine(_plan(), backend="numpy")

        class _Buggy:
            def run(self, *args, **kwargs):
                raise TypeError("not a hardware fault")

        engine._engines["numpy"] = _Buggy()
        x, w = _data()
        # Only ReproError demotes down the ladder; bugs must surface.
        with pytest.raises(TypeError):
            engine.run(x, w)

    def test_bias_and_relu_on_reference_tier(self):
        engine = GuardedConvolutionEngine(_plan(), backend="numpy")

        class _Broken:
            def run(self, *args, **kwargs):
                raise SimulationError("down")

            def evaluate(self):
                raise SimulationError("down")

        engine._engines["numpy"] = _Broken()
        x, w = _data()
        bias = np.linspace(-1.0, 1.0, PARAMS.no)
        out, _ = engine.run(x, w, bias=bias, activation="relu")
        expected = conv2d_reference(x, w) + bias[None, :, None, None]
        expected = np.maximum(expected, 0.0)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


class TestGuards:
    def test_nan_guard_trips(self):
        engine = GuardedConvolutionEngine(_plan(), backend="mesh")
        x, w = _data()
        bad = np.full(PARAMS.output_shape, np.nan)
        passed, _ = engine._guard_output("mesh", bad, x, w, None)
        assert not passed
        assert "NaN/Inf" in engine.last_outcome.degradations[0]

    def test_parity_guard_trips_on_wrong_values(self):
        engine = GuardedConvolutionEngine(_plan(), backend="mesh", parity_check=True)
        x, w = _data()
        wrong = conv2d_reference(x, w) + 1.0
        passed, reference = engine._guard_output("mesh", wrong, x, w, None)
        assert not passed
        assert reference is not None
        assert "parity" in engine.last_outcome.degradations[0]

    def test_parity_guard_passes_correct_values(self):
        engine = GuardedConvolutionEngine(_plan(), backend="mesh", parity_check=True)
        x, w = _data()
        good = conv2d_reference(x, w)
        passed, _ = engine._guard_output("mesh", good, x, w, None)
        assert passed


class TestEvaluate:
    def test_healthy_matches_plain_engine(self):
        guarded = GuardedConvolutionEngine(_plan(), backend="mesh-fast")
        plain = ConvolutionEngine(_plan(), backend="mesh-fast")
        assert guarded.evaluate().seconds == pytest.approx(plain.evaluate().seconds)

    def test_degraded_machine_still_times(self):
        plan = FaultPlan(FaultSpec(fenced_cpes=((1, 2), (6, 6))))
        guarded = GuardedConvolutionEngine(_plan(), backend="mesh-fast", fault_plan=plan)
        report = guarded.evaluate()
        assert report.seconds > 0

    def test_fenced_replan_slows_compute(self):
        healthy = ConvolutionEngine(_plan()).evaluate()
        plan = FaultPlan(FaultSpec(fenced_cpes=((1, 2), (6, 6))))
        degraded = ConvolutionEngine(_plan(), fault_plan=plan).evaluate()
        # 16 of 64 CPEs survive the replan: compute time must grow.
        assert degraded.compute_seconds > healthy.compute_seconds

    def test_dma_derating_slows_transfers(self):
        healthy = ConvolutionEngine(_plan()).evaluate()
        plan = FaultPlan(FaultSpec(dma_bandwidth_factor=0.5))
        degraded = ConvolutionEngine(_plan(), fault_plan=plan).evaluate()
        assert degraded.dma_seconds == pytest.approx(2.0 * healthy.dma_seconds)

    @pytest.mark.parametrize("kind", ["image", "batch"])
    @pytest.mark.parametrize(
        "spec, tier",
        [(None, "mesh-fast"), (FaultSpec(bus_stall_rate=1.0), "numpy")],
        ids=["first-tier", "demoted"],
    )
    def test_run_reports_evaluate(self, kind, spec, tier):
        # Batch 8 fills the mesh, so both families run on the first tier.
        params = ConvParams.from_output(ni=16, no=16, ro=8, co=8, kr=3, kc=3, b=8)
        faults = FaultPlan(spec) if spec is not None else None
        engine = GuardedConvolutionEngine(
            make_plan(kind, params), backend="mesh-fast", fault_plan=faults
        )
        rng = np.random.default_rng(0)
        x = rng.standard_normal(params.input_shape)
        w = rng.standard_normal(params.filter_shape)
        clear_timing_cache()
        _, timing = engine.run(x, w)
        assert engine.last_outcome.backend_used == tier
        assert timing == engine.evaluate()


class TestLadders:
    def test_every_ladder_ends_in_reference(self):
        for backend, ladder in FALLBACK_LADDERS.items():
            assert ladder[0] == backend
            assert ladder[-1] == "reference"
