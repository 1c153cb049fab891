"""Autotuned execution plans (swTVM / MG3MConv-style schedule search).

The paper's headline gains come from *choosing the right mapping* — LDM
blocking sizes, the image-size-aware vs. batch-size-aware loop-schedule
families, and register-blocking shapes — guided by the three-level
REG/LDM/MEM performance model.  The heuristic planner
(:mod:`repro.core.planner`) makes that choice with one closed-form rule per
family; this package replaces the rule with a *measured search*:

1. :func:`~repro.tune.space.search_space` builds the legal blocking space
   as NumPy columns (LDM-capacity-feasible ``bB``/``bCo``/``bNi`` x both
   loop-schedule families x DMA-promotion flags x register-feasible
   ``(rbB, rbNo)`` shapes);
2. the analytic roofline model scores every point at once
   (:func:`~repro.tune.tuner.score_space`) and prunes the space to the most
   promising ``top_k`` candidates;
3. the survivors are *measured* on the simulator — in parallel via
   :func:`~repro.common.parallel.parallel_map` — and the fastest wins;
4. the winner is persisted in a versioned on-disk plan cache
   (:class:`~repro.tune.cache.PlanCache`) keyed by (params, spec
   fingerprint, backend tier, effective mesh size), so every later process
   loads the tuned plan instead of re-searching.

With ``algorithms="all"`` the same search additionally spans the
algorithm zoo (:mod:`repro.core.algorithms`): GEMM-lowered im2col and
fused F(2x2,3x3) Winograd candidates compete with the direct families,
illegal (algorithm, shape) combinations pruned at enumeration.
"""

from repro.tune.cache import (
    CACHE_SCHEMA_VERSION,
    CacheStats,
    PlanCache,
    default_cache_dir,
    global_cache_stats,
    reset_global_cache_stats,
)
from repro.core.algorithms import ALGORITHMS, resolve_algorithms
from repro.tune.space import FAMILIES, Candidate, enumerate_candidates, search_space
from repro.tune.tuner import (
    TunedPlan, autotune, score_candidate, score_space, warm_cache,
)

__all__ = [
    "ALGORITHMS",
    "FAMILIES",
    "resolve_algorithms",
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "Candidate",
    "PlanCache",
    "TunedPlan",
    "autotune",
    "default_cache_dir",
    "enumerate_candidates",
    "global_cache_stats",
    "reset_global_cache_stats",
    "score_candidate",
    "score_space",
    "search_space",
    "warm_cache",
]
