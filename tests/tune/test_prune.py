"""The tuner's measure step folds only the survivors that can still win.

``tuner._measure`` bounds every survivor's time from below
(:func:`~repro.core.conv.pipeline_lower_bound`), folds survivors in
ascending bound order and skips the rest once the next bound exceeds the
best folded time.  These tests hold the bound under the folded totals it
bounds, and the pruned tune to an oracle that folds every survivor.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.algorithms import engine_for_plan
from repro.core.conv import (
    OVERLAP_CONTENTION,
    _pipeline_timeline,
    _StepCost,
    clear_timing_cache,
    evaluate_chip,
    pipeline_lower_bound,
)
from repro.core.params import ConvParams
from repro.experiments.configs import fig8_center, fig8_left, fig8_right
from repro.experiments.table3 import PAPER_ROWS
from repro.faults import FaultPlan, FaultSpec
from repro.hw.spec import DEFAULT_SPEC
from repro.telemetry import Telemetry, use_telemetry
from repro.tune import autotune, tuner

_FIG8 = fig8_left() + fig8_center() + fig8_right()
_GROUPS = DEFAULT_SPEC.num_core_groups
#: The 16-row per-CG strips the sweep tunes, one per Fig. 8 configuration.
_STRIPS = [p.with_rows(p.ro // _GROUPS) for p in _FIG8]
_TABLE3_STRIPS = [
    ConvParams.from_output(ni=row[3], no=row[4], ro=16, co=64, kr=3, kc=3, b=128)
    for row in PAPER_ROWS
]


def _cost(get, compute, put):
    return _StepCost(get, compute, put, 0, 0, 0)


def _survivors(params, monkeypatch, **kwargs):
    """The candidates one ``autotune`` call hands its measure step."""
    seen = []
    measure = tuner._measure

    def record(survivors, *args):
        seen.extend(survivors)
        return measure(survivors, *args)

    with monkeypatch.context() as patch:
        patch.setattr(tuner, "_measure", record)
        autotune(params, cache=False, **kwargs)
    return seen


def _shape_id(p):
    return f"{p.ni}x{p.no}k{p.kr}-{p.ro}x{p.co}b{p.b}"


class TestBoundHolds:
    @pytest.mark.parametrize(
        "params, algorithms",
        [(p, "all") for p in _TABLE3_STRIPS] + [(p, None) for p in _STRIPS[::13]],
        ids=lambda v: _shape_id(v) if isinstance(v, ConvParams) else str(v),
    )
    def test_every_survivor(self, params, algorithms, monkeypatch):
        """Direct and lowered survivors: the bound is at most the fold."""
        survivors = _survivors(params, monkeypatch, algorithms=algorithms)
        if algorithms == "all":
            assert {c.algorithm for c in survivors} == {"direct", "im2col", "winograd"}
        for candidate in survivors:
            walk = engine_for_plan(candidate.build(params)).priced_walk()
            assert walk.lower_bound() <= walk.fold().seconds, candidate.describe()

    _seconds = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e-3))
    _steps = st.tuples(_seconds, _seconds, _seconds).map(lambda t: _cost(*t))
    _programs = st.lists(
        st.tuples(
            st.lists(_steps, min_size=1, max_size=5).map(tuple),
            st.integers(min_value=1, max_value=40),
        ),
        min_size=1,
        max_size=4,
    )

    @settings(max_examples=200, deadline=None)
    @given(program=_programs, contention=st.sampled_from([0.0, 0.5, 1.0]))
    @example(program=[((_cost(1e-4, 2e-4, 3e-4),), 1)], contention=0.5)  # one tile
    @example(program=[((_cost(0.0, 0.0, 0.0),), 3)], contention=1.0)  # nothing to do
    @example(  # zero get, zero compute and zero put tiles in one pattern
        program=[((_cost(0.0, 1e-4, 2e-4), _cost(1e-4, 0.0, 1e-4),
                   _cost(2e-4, 1e-4, 0.0)), 7)],
        contention=0.5,
    )
    @example(  # puts longer than computes: the put queue backs up
        program=[((_cost(1e-5, 1e-5, 9e-4),), 30), ((_cost(5e-4, 1e-4, 0.0),), 2)],
        contention=0.0,
    )
    def test_cost_programs(self, program, contention):
        total, _, _ = _pipeline_timeline(program, contention)
        assert pipeline_lower_bound(program, contention) <= total

    @pytest.mark.parametrize("contention", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("queued", [False, True], ids=["free", "queued"])
    def test_long_programs(self, contention, queued):
        """6,000 tiles in one run and 5,000 as a repeated pattern."""
        rng = random.Random(5000 + queued)
        put_high = 2e-3 if queued else 5e-5
        costs = tuple(
            _cost(
                rng.uniform(0.0, 1e-3),
                rng.uniform(1e-4, 1e-3),
                rng.uniform(0.0, put_high) if i % 3 == 2 else 0.0,
            )
            for i in range(6000)
        )
        for program in ([(costs, 1)], [(costs[:5], 1000)]):
            total, _, _ = _pipeline_timeline(program, contention)
            assert pipeline_lower_bound(program, contention) <= total

    def test_bound_is_tight_without_overlap(self):
        """Compute alone (or DMA alone) is the bound, up to the margin."""
        for program in ([((_cost(0.0, 2e-4, 0.0),), 9)], [((_cost(3e-4, 0.0, 0.0),), 9)]):
            total, _, _ = _pipeline_timeline(program, OVERLAP_CONTENTION)
            assert total * (1 - 2e-9) <= pipeline_lower_bound(program) <= total


def _fold_every_survivor(survivors, params, spec, fault_plan, fused_pool):
    """Oracle measure step: fold every survivor, keep the (seconds,
    describe()) minimum."""
    reports = [
        engine_for_plan(
            c.build(params, spec), spec=spec, fault_plan=fault_plan, fused_pool=fused_pool
        ).evaluate()
        for c in survivors
    ]
    best = min(
        range(len(survivors)), key=lambda i: (reports[i].seconds, survivors[i].describe())
    )
    return best, reports[best]


def _result(tuned):
    return (
        tuned.candidate.describe(),
        tuned.seconds.hex(),
        tuned.gflops.hex(),
        tuned.measured,
        tuned.candidates,
    )


def _pruned_and_oracle(params, monkeypatch, walk_chip=False, **kwargs):
    """``autotune`` as is, and with the oracle's measure step, each from an
    empty timing memo (after ``evaluate_chip``'s walks, as in a sweep)."""
    results = []
    for measure in (tuner._measure, _fold_every_survivor):
        clear_timing_cache()
        if walk_chip:
            evaluate_chip(params)
        strip = params.with_rows(params.ro // _GROUPS)
        with monkeypatch.context() as patch:
            patch.setattr(tuner, "_measure", measure)
            results.append(_result(autotune(strip, cache=False, **kwargs)))
    clear_timing_cache()
    return results


class TestPruningChangesNoResult:
    def test_every_fig8_strip(self, monkeypatch):
        for params in _FIG8:
            pruned, oracle = _pruned_and_oracle(params, monkeypatch, walk_chip=True)
            assert pruned == oracle, params

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"top_k": 1},  # the heuristic, read from the memo, often wins
            {"top_k": 4},
            {"top_k": 30},
            {"families": ("image-size-aware",)},
            {"algorithms": "all"},
            {"fused_pool": 2},
        ],
        ids=["top1", "top4", "top30", "image-family", "all-algorithms", "fused-pool"],
    )
    def test_restrictions(self, kwargs, monkeypatch):
        # The lowered spaces cost more to score; a sparser sample keeps time.
        for params in _FIG8[:: 24 if "algorithms" in kwargs else 8]:
            pruned, oracle = _pruned_and_oracle(
                params, monkeypatch, walk_chip=True, **kwargs
            )
            assert pruned == oracle, (params, kwargs)

    def test_fault_plan(self, monkeypatch):
        """A derated DMA and two fenced CPEs: the degraded machine's walks."""
        spec = FaultSpec(dma_bandwidth_factor=0.6, fenced_cpes=((0, 0), (3, 5)))
        for params in _FIG8[::26]:
            pruned, oracle = _pruned_and_oracle(
                params, monkeypatch, fault_plan=FaultPlan(spec)
            )
            assert pruned == oracle, params

    def test_jobs_do_not_change_the_result(self, monkeypatch):
        params = _FIG8[40]
        pruned, oracle = _pruned_and_oracle(params, monkeypatch, jobs=2)
        assert pruned == oracle
        serial, _ = _pruned_and_oracle(params, monkeypatch, jobs=1)
        assert serial == pruned


class TestPruningStaysOn:
    def test_paper_scale_strip_skips_folds(self):
        clear_timing_cache()
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            tuned = autotune(_TABLE3_STRIPS[0], cache=False)
        counters = telemetry.counters
        assert counters.get("tune.measurements") == tuned.measured
        pruned = counters.get("tune.pruned")
        assert 0 < pruned < tuned.measured
        # Every survivor not skipped is folded once, through the memo.
        assert counters.get("engine.timing_cache.misses") == tuned.measured - pruned
