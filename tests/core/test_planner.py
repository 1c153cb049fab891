"""Model-guided plan selection."""

import pytest

from repro.core.params import ConvParams
from repro.core.planner import plan_convolution


class TestPlanSelection:
    def test_returns_best_of_both_families(self, paper_params):
        choice = plan_convolution(paper_params)
        assert choice.kind in ("image-size-aware", "batch-size-aware")
        assert choice.estimate.flops >= max(
            (alt.flops for alt in choice.alternatives), default=0.0
        )

    def test_alternatives_reported(self, paper_params):
        choice = plan_convolution(paper_params)
        assert len(choice.alternatives) == 1

    def test_small_batch_prefers_image_plan(self):
        # B=8 makes Eq. 2's 1/B term huge; column blocking must win.
        params = ConvParams.from_output(ni=128, no=128, ro=64, co=64, kr=3, kc=3, b=8)
        choice = plan_convolution(params)
        assert choice.kind == "image-size-aware"

    def test_plan_feasible_for_tiny_problem(self, small_params):
        choice = plan_convolution(small_params)
        choice.plan.validate()

    def test_describe_mentions_choice(self, paper_params):
        text = plan_convolution(paper_params).describe()
        assert "chosen" in text
        assert "rejected" in text

    def test_batch_family_dropped_when_infeasible(self):
        # A batch too large for any whole-batch LDM blocking: only the
        # image family remains a candidate.
        params = ConvParams.from_output(ni=64, no=64, ro=16, co=16, kr=3, kc=3, b=16384)
        choice = plan_convolution(params)
        assert choice.kind == "image-size-aware"
        assert choice.alternatives == []

    def test_choice_is_deterministic(self, paper_params):
        a = plan_convolution(paper_params)
        b = plan_convolution(paper_params)
        assert a.kind == b.kind
        assert a.estimate.flops == pytest.approx(b.estimate.flops)
