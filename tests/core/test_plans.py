"""Plan schedules: coverage, traffic consistency, model hookup."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import PlanError
from repro.core.ldm_blocking import BatchBlocking, ImageBlocking
from repro.core.params import ConvParams
from repro.core.plans import (
    BatchSizeAwarePlan,
    ImageSizeAwarePlan,
    expand_program,
    make_plan,
)


@pytest.fixture
def params():
    return ConvParams(ni=16, no=16, ri=10, ci=10, kr=3, kc=3, b=16)


def _steps(plan, program):
    """The unrolled tile program, or the full tile schedule."""
    return expand_program(plan.tile_program()) if program else plan.tile_schedule()


def _total_flops(plan, program):
    return sum(step.flops for step in _steps(plan, program))


def _total_bytes(plan, program):
    return sum(
        t.nbytes
        for step in _steps(plan, program)
        for t in list(step.gets) + list(step.puts)
    )


class TestFlopCoverage:
    def test_image_plan_covers_layer(self, params):
        plan = ImageSizeAwarePlan(params)
        assert _total_flops(plan, False) == params.flops()

    def test_batch_plan_covers_layer(self, params):
        plan = BatchSizeAwarePlan(params)
        assert _total_flops(plan, False) == params.flops()

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=4, max_value=8),
    )
    @settings(max_examples=20, deadline=None)
    def test_coverage_property(self, ni8, no8, k2, out):
        params = ConvParams.from_output(
            ni=ni8 * 8, no=no8 * 8, ro=out, co=out, kr=2 * k2 + 1, kc=2 * k2 + 1, b=8
        )
        for family in (ImageSizeAwarePlan, BatchSizeAwarePlan):
            plan = family(params)
            assert _total_flops(plan, False) == params.flops()
            assert _total_flops(plan, True) == params.flops()


class TestCoalescedConsistency:
    def test_bytes_identical(self, params):
        for family in (ImageSizeAwarePlan, BatchSizeAwarePlan):
            plan = family(params)
            assert _total_bytes(plan, True) == _total_bytes(plan, False)

    def test_coalesced_has_no_computespecs(self, params):
        # The tile program's merged (coalesced) steps carry no GEMM updates.
        for family in (ImageSizeAwarePlan, BatchSizeAwarePlan):
            for pattern, _ in family(params).tile_program():
                for step in pattern:
                    assert step.computes == []

    def test_full_schedule_has_computespecs(self, params):
        plan = ImageSizeAwarePlan(params)
        specs = sum(len(s.computes) for s in plan.tile_schedule())
        assert specs > 0


class TestDMAStreams:
    def test_streams_cover_all_tensors(self, params):
        plan = BatchSizeAwarePlan(params)
        names = {s.name for s in plan.dma_streams()}
        assert names == {"input.get", "filter.get", "output.put"}

    def test_stream_totals_match_schedule(self, params):
        plan = ImageSizeAwarePlan(params)
        assert plan.total_dma_bytes() == _total_bytes(plan, False)

    def test_output_bytes_exact(self, params):
        plan = BatchSizeAwarePlan(params)
        out = next(s for s in plan.dma_streams() if s.name == "output.put")
        assert out.bytes_moved == params.output_bytes()

    def test_streams_cached(self, params):
        plan = ImageSizeAwarePlan(params)
        assert plan.dma_streams() is plan.dma_streams()

    def test_input_traffic_amplified_by_filter(self, params):
        # Unpromoted image plan re-reads the input per (kr, kc).
        plan = ImageSizeAwarePlan(
            params, blocking=ImageBlocking(b_b=8, b_co=4)
        )
        inp = next(s for s in plan.dma_streams() if s.name == "input.get")
        expected = params.b * params.ro * params.co * params.kr * params.kc * params.ni * 8
        assert inp.bytes_moved == expected
        assert inp.bytes_moved > params.input_bytes()


class TestEstimates:
    def test_estimate_produces_positive_gflops(self, params):
        for family in (ImageSizeAwarePlan, BatchSizeAwarePlan):
            est = family(params).estimate()
            assert 0 < est.gflops <= 742.4

    def test_estimate_plan_label(self, params):
        assert ImageSizeAwarePlan(params).estimate().plan == "image-size-aware"
        assert BatchSizeAwarePlan(params).estimate().plan == "batch-size-aware"

    def test_promoted_batch_plan_lower_rbw(self, params):
        plain = BatchSizeAwarePlan(
            params, blocking=BatchBlocking(b_co=4, promote_filter=False)
        )
        promoted = BatchSizeAwarePlan(
            params, blocking=BatchBlocking(b_co=4, promote_filter=True)
        )
        assert promoted.rbw_mem() < plain.rbw_mem()

    def test_promoted_batch_plan_less_traffic(self, params):
        plain = BatchSizeAwarePlan(
            params, blocking=BatchBlocking(b_co=4, promote_filter=False)
        )
        promoted = BatchSizeAwarePlan(
            params, blocking=BatchBlocking(b_co=4, promote_filter=True)
        )
        assert promoted.total_dma_bytes() < plain.total_dma_bytes()


class TestMakePlan:
    def test_by_name(self, params):
        assert isinstance(make_plan("image", params), ImageSizeAwarePlan)
        assert isinstance(make_plan("batch", params), BatchSizeAwarePlan)

    def test_unknown_rejected(self, params):
        with pytest.raises(PlanError):
            make_plan("frequency-domain", params)
