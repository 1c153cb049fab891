"""Autotuner behavior: never-worse winners, cache flow, degraded tuning."""

import numpy as np
import pytest

from repro.core.conv import ConvolutionEngine
from repro.core.planner import plan_convolution
from repro.core.reference import conv2d_reference
from repro.faults import FaultPlan, FaultSpec
from repro.tune import PlanCache, autotune, score_candidate, warm_cache
from repro.tune.space import enumerate_candidates


TOP_K = 4  # small measured set keeps the suite fast


class TestTuning:
    def test_winner_never_worse_than_heuristic(self, small_params):
        heuristic = plan_convolution(small_params).plan
        baseline = ConvolutionEngine(heuristic).evaluate()
        result = autotune(small_params, cache=False, top_k=TOP_K)
        assert result.source == "tuned"
        assert result.measured >= 1
        assert result.seconds <= baseline.seconds * (1 + 1e-12)

    def test_tuned_plan_is_bit_identical(self, small_params, rng):
        """Whatever wins the search, the math is the reference math."""
        result = autotune(small_params, cache=False, top_k=TOP_K)
        x = rng.standard_normal(small_params.input_shape)
        w = rng.standard_normal(small_params.filter_shape)
        out, _ = ConvolutionEngine(result.plan).run(x, w)
        assert np.allclose(out, conv2d_reference(x, w))

    def test_counts_are_consistent(self, small_params):
        result = autotune(small_params, cache=False, top_k=TOP_K)
        assert result.candidates == len(enumerate_candidates(small_params))
        # the heuristic rides along, possibly deduplicated
        assert TOP_K <= result.measured <= TOP_K + 1

    def test_score_candidate_is_finite_and_positive(self, small_params):
        for cand in enumerate_candidates(small_params)[::11]:
            est = score_candidate(cand, small_params)
            assert np.isfinite(est.flops)
            assert est.flops > 0


class TestCacheFlow:
    def test_cold_then_warm(self, tmp_path, small_params):
        cache = PlanCache(tmp_path)
        cold = autotune(small_params, cache=cache, top_k=TOP_K)
        warm = autotune(small_params, cache=cache, top_k=TOP_K)
        assert cold.source == "tuned" and warm.source == "cache"
        assert warm.measured == 0
        assert warm.plan.signature() == cold.plan.signature()
        assert warm.gflops == pytest.approx(cold.gflops)
        assert cache.stats.hits == 1

    def test_force_retunes_but_still_stores(self, tmp_path, small_params):
        cache = PlanCache(tmp_path)
        autotune(small_params, cache=cache, top_k=TOP_K)
        forced = autotune(small_params, cache=cache, top_k=TOP_K, force=True)
        assert forced.source == "tuned"
        assert forced.measured >= 1
        assert cache.stats.stores == 2

    def test_cache_false_persists_nothing(self, tmp_path, small_params, monkeypatch):
        monkeypatch.setenv("SWDNN_PLAN_CACHE", str(tmp_path / "plans"))
        result = autotune(small_params, cache=False, top_k=TOP_K)
        assert result.cache_path is None
        assert not (tmp_path / "plans").exists()

    def test_path_argument_is_accepted(self, tmp_path, small_params):
        result = autotune(small_params, cache=str(tmp_path), top_k=TOP_K)
        assert result.cache_path is not None
        assert result.cache_path.parent == tmp_path

    def test_warm_cache_covers_chip_strips(self, tmp_path, small_params):
        cache = PlanCache(tmp_path)
        warmed = warm_cache([small_params], cache=cache, top_k=TOP_K)
        assert all(r.source == "tuned" for r in warmed)
        # A warmed cache answers both the full shape and every CG strip.
        again = warm_cache([small_params], cache=cache, top_k=TOP_K)
        assert all(r.source == "cache" for r in again)


class TestDegradedTuning:
    def test_fenced_mesh_tunes_separately(self, tmp_path, small_params):
        """Healthy and degraded machines never alias in the cache."""
        cache = PlanCache(tmp_path)
        healthy = autotune(small_params, cache=cache, top_k=TOP_K)
        fault = FaultPlan(FaultSpec(fenced_cpes=((0, 0),)))
        degraded = autotune(
            small_params, cache=cache, top_k=TOP_K, fault_plan=fault
        )
        assert degraded.source == "tuned"  # not a hit on the healthy entry
        assert degraded.cache_path != healthy.cache_path
        assert cache.entries() == 2

    def test_derated_dma_slows_the_winner(self, small_params):
        healthy = autotune(small_params, cache=False, top_k=TOP_K)
        fault = FaultPlan(FaultSpec(dma_bandwidth_factor=0.5))
        degraded = autotune(
            small_params, cache=False, top_k=TOP_K, fault_plan=fault
        )
        assert degraded.seconds > healthy.seconds
