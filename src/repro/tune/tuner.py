"""The autotuner: model-pruned, simulator-measured plan search.

``autotune()`` picks the fastest execution plan for one conv shape:

1. every LDM/register-feasible point is enumerated as NumPy columns
   (:func:`~repro.tune.space.search_space`);
2. all are scored at once with the closed-form three-level roofline model
   (:func:`score_space` — no schedule is compiled, no per-point object is
   built) and ranked by one stable sort;
3. the best ``top_k`` by model score — plus the heuristic planner's choice,
   so the tuner can never do worse than the status quo — become
   :class:`~repro.tune.space.Candidate` objects, the *survivors*, and are
   *measured* on the simulator (:func:`_measure`): each survivor's timed
   walk is priced and its time bounded from below, survivors fold in
   ascending bound order, and once the next bound exceeds the best folded
   time the rest are skipped, since none of them can win;
4. the measured winner is persisted in the :class:`~repro.tune.cache.PlanCache`
   so later processes skip straight to step 0: a cache hit returns the
   stored plan with zero candidates measured.

The model is a *pruning oracle*, not the judge: ranking errors only cost a
candidate its slot in the measured set, never a wrong winner among the
measured ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import LDMOverflowError, PlanError
from repro.core.algorithms import engine_for_plan, resolve_algorithms
from repro.core.conv import (
    PricedWalk,
    TimingReport,
    _cached_report,
    _evaluated,
    effective_mesh_size,
)
from repro.core.params import ConvParams
from repro.core.plans import ConvPlan
from repro.core.layout import batch_plan_block_bytes, image_plan_block_bytes
from repro.core.ldm_blocking import _ni_block
from repro.core.register_blocking import RegisterBlocking
from repro.core.serialize import plan_from_dict, plan_to_dict
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.perf.dma_model import DMAStream, blended_mbw
from repro.perf.equations import (
    rbw_ldm_reg_gemm_simd,
    rbw_mem_ldm_batch_plan,
    rbw_mem_ldm_batch_plan_promoted,
    rbw_mem_ldm_image_plan,
    rbw_mem_ldm_image_plan_promoted,
)
from repro.perf.model import PerformanceEstimate, _measured_ee
from repro.perf.roofline import bandwidth_bound_fraction
from repro.telemetry import current_telemetry
from repro.tune.cache import PlanCache
from repro.tune.space import Candidate, SearchSpace, search_space


@dataclass
class TunedPlan:
    """Result of one autotune call."""

    plan: ConvPlan
    candidate: Candidate
    gflops: float  # measured (simulated) per-CG Gflop/s of the winner
    seconds: float  # measured layer time of the winner
    source: str  # "cache" | "tuned"
    candidates: int  # feasible points enumerated
    #: Survivors the measurement decides among (0 on a hit); those it could
    #: skip without folding their walks are counted by ``tune.pruned``.
    measured: int
    cache_path: Optional[Path] = None


@lru_cache(maxsize=256)
def _oracle_mbw(block: int) -> float:
    """Two-stream Table II MBW at one DMA block size (4:1 get:put bytes)."""
    return blended_mbw(
        [
            DMAStream("get", 1.0, block, "get"),
            DMAStream("put", 0.25, block, "put"),
        ]
    )


def _per_distinct(fn: Callable[[Any], float], keys: np.ndarray) -> np.ndarray:
    """``fn`` called once per distinct key, its results mapped onto ``keys``."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    return np.array([fn(key) for key in distinct.tolist()], dtype=float)[inverse]


def _model_terms(
    space: SearchSpace,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[float]]:
    """EE (blockings x shapes), RBW_mem and MBW_mem (per blocking) and
    Eq. 5's RBW (per shape) of the direct points.  The Eq. 1/2 functions
    run on the columns, whose elementwise arithmetic rounds like the scalar
    call; the memoized lookups run once per distinct key."""
    p, spec = space.params, space.spec
    peak = spec.peak_flops_per_cg
    img, bat = slice(None, space.image), slice(space.image, None)
    b_ni, b_b, b_co, promote_input, promote_filter = space.blockings.T
    iterations = np.maximum(1, -(-_ni_block(b_ni, p.ni) // 8))
    ee = np.stack([
        _per_distinct(lambda k: _measured_ee(k, rb.rb_b // 4, rb.rb_no), iterations)
        for rb in space.shapes
    ], axis=-1)
    rbw_mem = np.concatenate([
        np.where(
            promote_input[img],
            rbw_mem_ldm_image_plan_promoted(b_co[img], b_b[img], p.no, p.kc, peak),
            rbw_mem_ldm_image_plan(b_co[img], b_b[img], p.no, peak),
        ),
        np.where(
            promote_filter[bat],
            rbw_mem_ldm_batch_plan_promoted(p.kc, p.no, p.b, b_co[bat], peak),
            rbw_mem_ldm_batch_plan(p.kc, p.no, p.b, peak),
        ),
    ])
    runs = np.minimum(p.co, b_co) + (p.kc - 1) * promote_input
    mbw_mem = np.concatenate([
        _per_distinct(lambda run: _oracle_mbw(image_plan_block_bytes(run)), runs[img]),
        np.full(len(b_co) - space.image, _oracle_mbw(batch_plan_block_bytes(p.b))),
    ])
    rbw_reg = [
        rbw_ldm_reg_gemm_simd(rb.rb_b, rb.rb_no, peak_flops=spec.peak_flops_per_cpe)
        for rb in space.shapes
    ]
    return ee, rbw_mem, mbw_mem, rbw_reg


def score_space(space: SearchSpace) -> np.ndarray:
    """Model flop/s of every point of ``space``, in enumeration order.

    A direct point's score equals :attr:`PerformanceEstimate.flops` of its
    terms under ``float.hex``: each square is Python's ``v ** 2`` (libm
    ``pow``, which differs from NumPy's ``v * v`` in the last bit on some
    inputs), taken once per distinct ``min(1, MBW/RBW)``, and
    ``peak x EE x mem² x reg²`` is multiplied left to right.  Lowered
    candidates follow, scored by their plan's own GEMM-roofline estimate.
    """
    spec = space.spec
    ee, rbw_mem, mbw_mem, rbw_reg = _model_terms(space)
    mem = _per_distinct(lambda v: v ** 2, np.minimum(1.0, mbw_mem / rbw_mem))
    reg = np.array(
        [bandwidth_bound_fraction(r, spec.ldm_bandwidth) ** 2 for r in rbw_reg]
    )
    direct = spec.peak_flops_per_cg * ee * mem[:, None] * reg
    lowered = [c.build(space.params, spec).estimate().flops for c in space.lowered]
    return np.concatenate([direct.ravel(), np.array(lowered, dtype=float)])


def score_candidate(
    candidate: Candidate,
    params: ConvParams,
    spec: SW26010Spec = DEFAULT_SPEC,
) -> PerformanceEstimate:
    """Closed-form three-level estimate of a candidate (the pruning oracle).

    Mirrors :meth:`~repro.core.plans.ConvPlan.estimate` without building a
    plan or compiling a schedule: RBW_mem comes from the family's Eq. 1/2
    variant (promotion-aware), MBW_mem from a two-stream Table II read at
    the family's leading-dimension block size, and EE from the simulated
    dual-pipeline kernel at the candidate's register shape and ``bNi``.
    A direct candidate is the one-point view of :func:`score_space`'s
    terms, so its ``flops`` equals the candidate's entry there.

    Lowered candidates (im2col, Winograd) are scored by their plan's own
    GEMM-roofline estimate — building a lowered plan is O(1), no schedule
    is compiled, and the estimate's flop budget is direct-equivalent, so
    the scores rank across algorithm families.
    """
    if candidate.algorithm != "direct":
        return candidate.build(params, spec).estimate()
    ee, rbw_mem, mbw_mem, rbw_reg = _model_terms(
        SearchSpace.of(candidate, params, spec)
    )
    return PerformanceEstimate(
        plan=candidate.family,
        peak_flops=spec.peak_flops_per_cg,
        execution_efficiency=float(ee[0, 0]),
        rbw_mem=float(rbw_mem[0]),
        mbw_mem=float(mbw_mem[0]),
        rbw_reg=rbw_reg[0],
        mbw_reg=spec.ldm_bandwidth,
    )


def _measure(
    survivors: Sequence[Candidate],
    params: ConvParams,
    spec: SW26010Spec,
    fault_plan,
    fused_pool: int,
) -> Tuple[int, TimingReport]:
    """Step 3: the index and timed report of the fastest survivor.

    Each survivor's engine is built and its time bounded from below: the
    exact ``seconds`` of a walk already in the timing memo, else its priced
    walk's :meth:`~repro.core.conv.PricedWalk.lower_bound`.  Survivors fold
    in ascending bound order until the next bound exceeds the best folded
    ``seconds``.  A skipped survivor is then strictly slower than a folded
    one, so the ``(seconds, describe())`` minimum over the folded survivors
    is the minimum over all of them.  Folds go through the memo and count
    as engine evaluations; ``tune.pruned`` counts the skipped survivors.
    """
    engines = [
        engine_for_plan(
            c.build(params, spec), spec=spec, fault_plan=fault_plan, fused_pool=fused_pool
        )
        for c in survivors
    ]
    walks: List[Optional[PricedWalk]] = []
    bounds: List[float] = []
    for engine in engines:
        cached = _cached_report(engine._timing_key())
        if cached is not None:
            walks.append(None)
            bounds.append(cached.seconds)
        else:
            walks.append(engine.priced_walk())
            bounds.append(walks[-1].lower_bound())
    reports: Dict[int, TimingReport] = {}
    best = math.inf
    for i in sorted(range(len(survivors)), key=bounds.__getitem__):
        if bounds[i] > best:
            break
        # A memoized survivor reads the memo; its own walk runs only if the
        # memo was emptied since it was bounded.
        fold = engines[i]._timed_walk if walks[i] is None else walks[i].fold
        reports[i] = _evaluated(engines[i], fold)
        best = min(best, reports[i].seconds)
    current_telemetry().counters.add("tune.pruned", len(survivors) - len(reports))
    best_i = min(reports, key=lambda i: (reports[i].seconds, survivors[i].describe()))
    return best_i, reports[best_i]


def _resolve_cache(
    cache: Union[None, bool, str, Path, PlanCache],
) -> Optional[PlanCache]:
    """None -> default on-disk cache; False -> no persistence; path -> there."""
    if cache is False:
        return None
    if cache is None or cache is True:
        return PlanCache()
    if isinstance(cache, PlanCache):
        return cache
    return PlanCache(cache)


def _heuristic_candidate(params: ConvParams, spec: SW26010Spec) -> Candidate:
    """The one-shot planner's choice, as a search point."""
    from repro.core.planner import plan_convolution

    plan = plan_convolution(params, spec=spec).plan
    return Candidate(
        family=plan.name,
        blocking=plan.blocking,
        register_blocking=plan.register_blocking,
    )


def _fused_feasible(
    candidate: Candidate,
    params: ConvParams,
    spec: SW26010Spec,
    fused_pool: int,
) -> bool:
    """Whether the candidate's plan still fits LDM with the pool accumulator.

    The fastest unfused plans pack LDM to the byte; tuning *for* a fused
    pipeline must reject them up front, or the measured winner would be
    unbuildable at execution time.
    """
    if fused_pool <= 1:
        return True
    try:
        engine_for_plan(
            candidate.build(params, spec), spec=spec, fused_pool=fused_pool
        )
    except (PlanError, LDMOverflowError):
        return False
    return True


def autotune(
    params: ConvParams,
    spec: SW26010Spec = DEFAULT_SPEC,
    backend: str = "numpy",
    cache: Union[None, bool, str, Path, PlanCache] = None,
    top_k: int = 12,
    jobs: Optional[int] = 1,
    fault_plan=None,
    register_blockings: Optional[Sequence[RegisterBlocking]] = None,
    force: bool = False,
    fused_pool: int = 1,
    families: Optional[Sequence[str]] = None,
    algorithms: Union[None, str, Sequence[str]] = None,
) -> TunedPlan:
    """Pick (and persist) the fastest plan for one conv shape.

    ``cache`` is a :class:`PlanCache`, a path to a cache directory, ``None``
    for the default on-disk cache, or ``False`` for a pure in-process tune
    with no persistence.  ``force=True`` skips the cache read (the winner is
    still stored).  With a ``fault_plan`` the degraded machine is tuned:
    candidates are timed at the derated DMA bandwidth on the surviving
    submesh, and the cache key carries the *effective* mesh size so healthy
    and degraded plans never alias.  ``fused_pool=s`` tunes for a fused
    ``s x s`` pooling epilogue: candidates whose plan cannot also host the
    LDM pool accumulator are rejected, the survivors are timed *with* the
    epilogue's put savings, and the winner is cached under a fused key.
    ``families`` restricts the search to a subset of the loop-schedule
    families (see :func:`~repro.tune.space.enumerate_candidates`); the
    restriction is part of the cache key, so a family-restricted winner
    never aliases the unrestricted one.  ``algorithms`` opts the search
    into the zoo's lowered families (im2col, Winograd) alongside or
    instead of the direct mapping — like ``families`` it enters the cache
    key only when set, so every pre-zoo direct entry keeps its key.
    ``jobs`` is accepted and has no effect: the measure step folds in the
    calling process, since after the bound a tune folds a few walks of
    ~0.1 ms each, far less than a worker pool takes to start.
    """
    resolved_algorithms = resolve_algorithms(algorithms)
    if fault_plan is not None and resolved_algorithms != ("direct",):
        raise PlanError(
            "degraded-machine tuning supports the direct algorithm only; "
            "drop the algorithms= restriction or the fault plan"
        )
    plan_cache = _resolve_cache(cache)
    mesh_size = spec.mesh_size
    if fault_plan is not None:
        fenced = fault_plan.fenced(spec.mesh_size)
        if fenced:
            mesh_size = effective_mesh_size(spec.mesh_size, fenced)

    if plan_cache is not None and not force:
        entry = plan_cache.load(
            params, spec, backend, mesh_size, fused_pool, families, algorithms
        )
        if entry is not None:
            plan = plan_from_dict(entry["plan"], spec=spec)
            tuning = entry.get("tuning", {})
            return TunedPlan(
                plan=plan,
                candidate=Candidate(
                    family=plan.name,
                    blocking=plan.blocking,
                    register_blocking=plan.register_blocking,
                    algorithm=getattr(plan, "algorithm", "direct"),
                ),
                gflops=float(tuning.get("gflops", 0.0)),
                seconds=float(tuning.get("seconds", 0.0)),
                source="cache",
                candidates=int(tuning.get("candidates", 0)),
                measured=0,
                cache_path=plan_cache.path_for(
                    params, spec, backend, mesh_size, fused_pool, families,
                    algorithms,
                ),
            )

    space = search_space(
        params,
        spec,
        register_blockings=register_blockings,
        families=families,
        algorithms=algorithms,
    )
    # Stable, so ties keep enumeration order, as ``sorted(reverse=True)`` does.
    order = np.argsort(-score_space(space), kind="stable")
    ranked = order.tolist()
    survivors: List[Candidate] = []
    seeds: List[Candidate] = []
    if "direct" in resolved_algorithms:
        heuristic = _heuristic_candidate(params, spec)
        if families is None or heuristic.family in families:
            seeds = [heuristic]
    # Every algorithm family in the search gets its best-scored candidate
    # measured: the closed-form scores of the lowered families are built on
    # a different roofline than the direct ones, so a cross-family ranking
    # error could otherwise exclude a whole family from the measured set.
    # The measurement — not the model — must decide the winner.
    # The lowered points are the space's tail (index >= ``space.direct``),
    # taken out of the ranking in ranked order.
    lowered_algorithms = [a for a in resolved_algorithms if a != "direct"]
    if lowered_algorithms:
        tail = order[order >= space.direct].tolist()
        lowered = [space.candidate(i) for i in tail]
        for algo in lowered_algorithms:
            for cand in lowered:
                if cand.algorithm == algo:
                    seeds.append(cand)
                    break
    # The lowered seeds ride on top of the direct budget, not inside it:
    # the zoo's measured set must be a superset of the direct-only one, or
    # adding algorithms could displace the direct winner and regress.
    budget = max(1, top_k) + sum(1 for s in seeds if s.algorithm != "direct")
    # A ranked point becomes a Candidate only when the walk reaches it.
    for cand in itertools.chain(seeds, map(space.candidate, ranked)):
        if cand in survivors or not _fused_feasible(cand, params, spec, fused_pool):
            continue
        survivors.append(cand)
        if len(survivors) > budget:
            break
    if not survivors:
        raise PlanError(
            f"no candidate for {params.describe()} can host a fused "
            f"{fused_pool}x{fused_pool} pooling accumulator in LDM"
        )

    # Measurements are counted so serving can *prove* its warm steady state:
    # a request that never tunes inline records zero here.
    current_telemetry().counters.add("tune.measurements", len(survivors))
    best_i, report = _measure(survivors, params, spec, fault_plan, fused_pool)
    winner = survivors[best_i]
    seconds, gflops = report.seconds, report.gflops
    plan = winner.build(params, spec)

    cache_path: Optional[Path] = None
    if plan_cache is not None:
        tuning = {
            "gflops": gflops,
            "seconds": seconds,
            "candidates": len(space),
            "measured": len(survivors),
            "winner": winner.describe(),
        }
        if winner.algorithm != "direct":
            tuning["algorithm"] = winner.algorithm
        cache_path = plan_cache.store(
            params,
            spec,
            backend,
            mesh_size,
            plan_to_dict(plan),
            tuning,
            fused_pool,
            families,
            algorithms,
        )
    return TunedPlan(
        plan=plan,
        candidate=winner,
        gflops=gflops,
        seconds=seconds,
        source="tuned",
        candidates=len(space),
        measured=len(survivors),
        cache_path=cache_path,
    )


def warm_cache(
    shapes: Sequence[ConvParams],
    spec: SW26010Spec = DEFAULT_SPEC,
    backend: str = "numpy",
    cache: Union[None, str, Path, PlanCache] = None,
    top_k: int = 12,
    num_groups: Optional[int] = None,
) -> List[TunedPlan]:
    """Pre-tune a model zoo entry's conv shapes (and their CG row strips).

    ``evaluate_chip`` splits output rows across core groups and plans each
    strip, so warming tunes both every full shape and the per-CG strip
    shapes it will actually request — a warmed sweep never tunes inline.
    """
    from repro.hw.chip import partition_rows

    plan_cache = _resolve_cache(cache)
    n = num_groups if num_groups is not None else spec.num_core_groups
    wanted: List[ConvParams] = []
    for params in shapes:
        for candidate_shape in [params] + [
            params.with_rows(stop - start)
            for start, stop in partition_rows(params.ro, n)
            if stop > start
        ]:
            if candidate_shape not in wanted:
                wanted.append(candidate_shape)
    return [
        autotune(
            shape,
            spec=spec,
            backend=backend,
            cache=plan_cache if plan_cache is not None else False,
            top_k=top_k,
        )
        for shape in wanted
    ]
