"""The column-built search space and scorer against the scalar path.

The reference below is the enumeration and the scorer as they were before
the search space became NumPy columns: nested loops that build, LDM-check
and deduplicate one :class:`Candidate` at a time, and a per-candidate
closed-form estimate.  The columns must reproduce both: the same points in
the same order, every score equal under ``float.hex``, and the same
ranking, ties included.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithms import (
    algorithm_legal,
    enumerate_gemm_blockings,
    resolve_algorithms,
)
from repro.core.layout import batch_plan_block_bytes, image_plan_block_bytes
from repro.core.ldm_blocking import (
    BatchBlocking,
    ImageBlocking,
    batch_plan_ldm_bytes,
    fits_in_ldm,
    image_plan_ldm_bytes,
)
from repro.core.params import ConvParams
from repro.core.register_blocking import PAPER_REGISTER_BLOCKING, RegisterBlocking
from repro.hw.spec import DEFAULT_SPEC
from repro.perf.equations import (
    rbw_ldm_reg_gemm_simd,
    rbw_mem_ldm_batch_plan,
    rbw_mem_ldm_batch_plan_promoted,
    rbw_mem_ldm_image_plan,
    rbw_mem_ldm_image_plan_promoted,
)
from repro.perf.model import PerformanceEstimate, _measured_ee
from repro.tune import tuner
from repro.tune.space import (
    DEFAULT_REGISTER_BLOCKINGS,
    FAMILIES,
    Candidate,
    _batch_grid,
    _image_grid,
    enumerate_candidates,
    search_space,
)
from repro.tune.tuner import (
    _model_terms,
    _oracle_mbw,
    autotune,
    score_candidate,
    score_space,
)

# -- the scalar reference ------------------------------------------------------


def _doubling(limit, start):
    value = start
    emitted_limit = False
    while value <= limit:
        yield value
        emitted_limit = emitted_limit or value == limit
        value *= 2
    if not emitted_limit and limit >= 1:
        yield limit


def _ni_blocks(ni):
    yield None
    value = ni // 2
    while value >= 8:
        yield value
        value //= 2


def _image_blockings(params, spec):
    for b_ni in _ni_blocks(params.ni):
        for b_b in _doubling(min(params.b, 256), 8):
            for b_co in _doubling(min(params.co, 128), 4):
                for promote_input in (False, True):
                    for promote_filter in (False, True):
                        blocking = ImageBlocking(
                            b_b=b_b,
                            b_co=b_co,
                            promote_input=promote_input,
                            promote_filter=promote_filter,
                            b_ni=b_ni,
                        )
                        if fits_in_ldm(
                            image_plan_ldm_bytes(params, blocking, spec), spec
                        ):
                            yield blocking


def _batch_blockings(params, spec):
    for b_ni in _ni_blocks(params.ni):
        for b_co in _doubling(min(params.co, 128), 1):
            for promote_filter in (False, True):
                blocking = BatchBlocking(
                    b_co=b_co, promote_filter=promote_filter, b_ni=b_ni
                )
                if fits_in_ldm(batch_plan_ldm_bytes(params, blocking, spec), spec):
                    yield blocking


def reference_candidates(
    params, spec=DEFAULT_SPEC, register_blockings=None, families=None,
    algorithms=None,
):
    algos = resolve_algorithms(algorithms)
    families = FAMILIES if families is None else families
    if register_blockings is None:
        register_blockings = DEFAULT_REGISTER_BLOCKINGS
    shapes = [rb for rb in register_blockings if rb.is_feasible(spec)]
    out, seen = [], set()

    def add(cand):
        if cand not in seen:
            seen.add(cand)
            out.append(cand)

    if "direct" in algos:
        if "image-size-aware" in families:
            for blocking in _image_blockings(params, spec):
                for rb in shapes:
                    add(Candidate("image-size-aware", blocking, rb))
        if "batch-size-aware" in families:
            for blocking in _batch_blockings(params, spec):
                for rb in shapes:
                    add(Candidate("batch-size-aware", blocking, rb))
    for algo in algos:
        if algo == "direct" or not algorithm_legal(algo, params):
            continue
        for blocking in enumerate_gemm_blockings(algo, params, spec):
            add(Candidate(algo, blocking, PAPER_REGISTER_BLOCKING, algorithm=algo))
    return out


def reference_score(candidate, params, spec=DEFAULT_SPEC):
    if candidate.algorithm != "direct":
        return candidate.build(params, spec).estimate().flops
    p = params
    blk = candidate.blocking
    rb = candidate.register_blocking
    ni_block = blk.ni_block(p.ni)
    iterations = max(1, -(-ni_block // 8))
    ee = _measured_ee(iterations, rb.rb_b // 4, rb.rb_no)
    if isinstance(blk, ImageBlocking):
        if blk.promote_input:
            rbw_mem = rbw_mem_ldm_image_plan_promoted(
                blk.b_co, blk.b_b, p.no, p.kc, peak_flops=spec.peak_flops_per_cg
            )
            block = image_plan_block_bytes(min(p.co, blk.b_co) + p.kc - 1)
        else:
            rbw_mem = rbw_mem_ldm_image_plan(
                blk.b_co, blk.b_b, p.no, peak_flops=spec.peak_flops_per_cg
            )
            block = image_plan_block_bytes(min(p.co, blk.b_co))
    else:
        if blk.promote_filter:
            rbw_mem = rbw_mem_ldm_batch_plan_promoted(
                p.kc, p.no, p.b, blk.b_co, peak_flops=spec.peak_flops_per_cg
            )
        else:
            rbw_mem = rbw_mem_ldm_batch_plan(
                p.kc, p.no, p.b, peak_flops=spec.peak_flops_per_cg
            )
        block = batch_plan_block_bytes(p.b)
    return PerformanceEstimate(
        plan=candidate.family,
        peak_flops=spec.peak_flops_per_cg,
        execution_efficiency=ee,
        rbw_mem=rbw_mem,
        mbw_mem=_oracle_mbw(block),
        rbw_reg=rbw_ldm_reg_gemm_simd(
            rb.rb_b, rb.rb_no, peak_flops=spec.peak_flops_per_cpe
        ),
        mbw_reg=spec.ldm_bandwidth,
    ).flops


# -- helpers -------------------------------------------------------------------


def _hex(values):
    return [float(v).hex() for v in values]


def _assert_matches_reference(params, spec=DEFAULT_SPEC, **restrictions):
    space = search_space(params, spec, **restrictions)
    points = [space.candidate(i) for i in range(len(space))]
    reference = reference_candidates(params, spec, **restrictions)
    assert points == reference
    scores = score_space(space)
    expected = [reference_score(c, params, spec) for c in reference]
    assert _hex(scores) == _hex(expected)
    ranked = np.argsort(-scores, kind="stable")
    assert [points[i] for i in ranked] == sorted(
        reference, key=lambda c: reference_score(c, params, spec), reverse=True
    )
    return points, scores


STRIP = ConvParams.from_output(ni=128, no=128, ro=16, co=64, kr=3, kc=3, b=128)


class TestAgainstScalarPath:
    @pytest.mark.parametrize("name", ["small_params", "paper_params"])
    def test_points_scores_and_order(self, name, request):
        params = request.getfixturevalue(name)
        points, scores = _assert_matches_reference(params)
        assert _hex(score_candidate(c, params).flops for c in points) == _hex(scores)

    def test_ties_keep_enumeration_order(self, paper_params):
        """Many points tie (the filter flag is free in Eq. 1); the ranking
        must break ties as ``sorted(..., reverse=True)`` does."""
        _, scores = _assert_matches_reference(paper_params)
        assert len(set(scores.tolist())) < len(scores) / 2

    def test_squares_with_pythons_pow(self):
        """At this fraction Python's ``v ** 2`` (libm ``pow``) is one ulp off
        ``v * v`` on glibc x86-64: the score must follow Python's."""
        params = ConvParams(ni=144, no=144, ri=18, ci=66, kr=3, kc=3, b=128)
        space = search_space(params)
        ee, rbw_mem, mbw_mem, rbw_reg = _model_terms(space)
        row = 36
        v = min(1.0, float(mbw_mem[row] / rbw_mem[row]))
        assert v.hex() == "0x1.e7f1bfe40400bp-1"
        index = row * len(space.shapes)
        cand = space.candidate(index)
        assert cand.describe() == "image-size-aware(bB=16 bCo=64 bNi=full) rb=(16,4)"
        score = score_space(space)[index]
        assert score.hex() == reference_score(cand, params).hex()
        reg = min(1.0, DEFAULT_SPEC.ldm_bandwidth / rbw_reg[0]) ** 2
        squared = DEFAULT_SPEC.peak_flops_per_cg * ee[row, 0] * np.square(v) * reg
        assert (score != squared) == (v ** 2 != v * v)

    @settings(max_examples=30, deadline=None)
    @given(
        ni=st.sampled_from([8, 16, 24, 48, 64, 96]),
        no=st.sampled_from([8, 16, 32, 64]),
        out=st.tuples(st.integers(1, 12), st.integers(1, 40)),
        k=st.sampled_from([1, 3, 5]),
        b=st.sampled_from([1, 8, 16, 32, 128, 384]),
        ldm_kib=st.sampled_from([64, 32, 256]),
        families=st.sampled_from(
            [None, ("image-size-aware",), ("batch-size-aware",), tuple(reversed(FAMILIES))]
        ),
        shapes=st.one_of(
            st.none(),
            st.lists(
                st.sampled_from(
                    DEFAULT_REGISTER_BLOCKINGS + (RegisterBlocking(rb_b=32, rb_no=32),)
                ),
                min_size=1,
                max_size=7,
            ).filter(lambda rbs: any(rb.is_feasible(DEFAULT_SPEC) for rb in rbs)),
        ),
        algorithms=st.sampled_from([None, "all", ("im2col",), ("winograd", "direct")]),
    )
    def test_legal_shapes_and_restrictions(
        self, ni, no, out, k, b, ldm_kib, families, shapes, algorithms
    ):
        params = ConvParams.from_output(
            ni=ni, no=no, ro=out[0], co=out[1], kr=k, kc=k, b=b
        )
        spec = dataclasses.replace(DEFAULT_SPEC, ldm_bytes=ldm_kib * 1024)
        _assert_matches_reference(
            params, spec, register_blockings=shapes, families=families,
            algorithms=algorithms,
        )

    def test_no_duplicate_candidates(self, small_params):
        doubled = DEFAULT_REGISTER_BLOCKINGS * 2
        candidates = enumerate_candidates(
            small_params, register_blockings=doubled, algorithms="all"
        )
        assert len(candidates) == len(set(candidates))
        assert len(candidates) == len(
            enumerate_candidates(small_params, algorithms="all")
        )


class TestLdmMask:
    """The mask equals the allocator-based check at every grid point."""

    @pytest.mark.parametrize("ldm_kib", [64, 16, 1024])
    @pytest.mark.parametrize("params_name", ["small_params", "paper_params", "strip"])
    def test_mask_equals_fits_in_ldm(self, params_name, ldm_kib, request):
        params = STRIP if params_name == "strip" else request.getfixturevalue(params_name)
        spec = dataclasses.replace(DEFAULT_SPEC, ldm_bytes=ldm_kib * 1024)
        seen = set()
        for grid in (_image_grid, _batch_grid):
            points, fits = grid(params, spec)
            for point, fit in zip(points.tolist(), fits.tolist()):
                b_ni, b_b, b_co, promote_input, promote_filter = point
                if grid is _image_grid:
                    blocking = ImageBlocking(
                        b_b, b_co, bool(promote_input), bool(promote_filter), b_ni or None
                    )
                    regions = image_plan_ldm_bytes(params, blocking, spec)
                else:
                    blocking = BatchBlocking(b_co, bool(promote_filter), b_ni or None)
                    regions = batch_plan_ldm_bytes(params, blocking, spec)
                assert fit == fits_in_ldm(regions, spec), blocking
                seen.add(fit)
        if params_name == "paper_params" and ldm_kib == 64:
            assert seen == {True, False}


class TestAutotuneRanking:
    def test_measures_the_reference_top_k_in_rank_order(self, monkeypatch):
        """The heuristic seed, then the reference ranking's best points in
        order, ties broken by enumeration order."""
        measured = []
        measure = tuner._measure
        monkeypatch.setattr(
            tuner,
            "_measure",
            lambda survivors, *args: measured.extend(survivors) or measure(survivors, *args),
        )
        top_k = 12
        autotune(STRIP, cache=False, jobs=1, top_k=top_k)
        expected = [tuner._heuristic_candidate(STRIP, DEFAULT_SPEC)]
        for cand in sorted(
            reference_candidates(STRIP),
            key=lambda c: reference_score(c, STRIP),
            reverse=True,
        ):
            if len(expected) > top_k:
                break
            if cand not in expected:
                expected.append(cand)
        assert measured == expected


class TestHotPath:
    def test_autotune_builds_only_what_it_measures(self, monkeypatch):
        """No per-candidate scoring, and one object per measured point (plus
        the heuristic seed, which the ranked walk may meet again)."""
        built = []
        init = Candidate.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("autotune scored a candidate one at a time")

        monkeypatch.setattr(Candidate, "__init__", counting_init)
        monkeypatch.setattr(tuner, "score_candidate", forbidden)
        result = autotune(STRIP, cache=False)
        assert result.candidates > 1000
        assert len(built) <= result.measured + 1
