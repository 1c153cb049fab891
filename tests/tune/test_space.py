"""Candidate enumeration: feasibility, coverage, and serialization."""

import dataclasses

import pytest

from repro.core.ldm_blocking import BatchBlocking, ImageBlocking
from repro.core.register_blocking import PAPER_REGISTER_BLOCKING, RegisterBlocking
from repro.hw.spec import DEFAULT_SPEC
from repro.tune import Candidate, enumerate_candidates
from repro.tune.space import DEFAULT_REGISTER_BLOCKINGS


class TestEnumeration:
    def test_nonempty_and_unique(self, small_params):
        candidates = enumerate_candidates(small_params)
        assert candidates
        assert len(candidates) == len(set(candidates))

    def test_both_families_present(self, small_params):
        families = {c.family for c in enumerate_candidates(small_params)}
        assert families == {"image-size-aware", "batch-size-aware"}

    def test_every_candidate_builds(self, small_params):
        """Feasibility filtering is real: every point materializes as a plan."""
        for cand in enumerate_candidates(small_params):
            plan = cand.build(small_params)
            assert plan.params == small_params

    def test_large_shape_is_pruned_but_rich(self, paper_params):
        candidates = enumerate_candidates(paper_params)
        # The search must expose promote_input — the lever the heuristic
        # planner never pulls.
        assert any(
            isinstance(c.blocking, ImageBlocking) and c.blocking.promote_input
            for c in candidates
        )
        # ... and a sampled subset must still be LDM-buildable.
        for cand in candidates[::97]:
            cand.build(paper_params)

    def test_batch_family_keeps_batch_whole(self, small_params):
        for cand in enumerate_candidates(small_params):
            if cand.family == "batch-size-aware":
                assert isinstance(cand.blocking, BatchBlocking)

    def test_register_blockings_all_feasible(self):
        for rb in DEFAULT_REGISTER_BLOCKINGS:
            assert rb.is_feasible(DEFAULT_SPEC)

    def test_custom_register_set(self, small_params):
        only = (RegisterBlocking(rb_b=8, rb_no=4),)
        candidates = enumerate_candidates(small_params, register_blockings=only)
        assert {c.register_blocking for c in candidates} == set(only)

    def test_no_feasible_register_shape_raises(self, small_params):
        huge = (RegisterBlocking(rb_b=32, rb_no=32),)
        with pytest.raises(ValueError):
            enumerate_candidates(small_params, register_blockings=huge)

    def test_infeasible_blockings_excluded(self, paper_params):
        """LDM capacity actually prunes: a roomier machine admits more."""
        roomy = dataclasses.replace(DEFAULT_SPEC, ldm_bytes=16 * 64 * 1024)
        assert len(enumerate_candidates(paper_params, DEFAULT_SPEC)) < len(
            enumerate_candidates(paper_params, roomy)
        )


class TestCandidate:
    def test_describe_mentions_family_and_registers(self):
        cand = Candidate(
            family="image-size-aware",
            blocking=ImageBlocking(b_b=8, b_co=4),
            register_blocking=PAPER_REGISTER_BLOCKING,
        )
        text = cand.describe()
        assert "image-size-aware" in text
        assert "rb=(16,4)" in text
