"""Property-based tests on the performance model's structure."""

from hypothesis import assume, given, settings, strategies as st

from repro.perf.model import PerformanceEstimate, PerformanceModel


positive = st.floats(min_value=1e6, max_value=1e12, allow_nan=False)


@st.composite
def estimates(draw):
    return PerformanceEstimate(
        plan="prop",
        peak_flops=draw(positive),
        execution_efficiency=draw(st.floats(min_value=0.01, max_value=1.0)),
        rbw_mem=draw(positive),
        mbw_mem=draw(positive),
        rbw_reg=draw(positive),
        mbw_reg=draw(positive),
    )


class TestEstimateInvariants:
    @given(estimates())
    @settings(max_examples=80, deadline=None)
    def test_flops_never_exceed_derated_peak(self, est):
        assert est.flops <= est.peak_flops * est.execution_efficiency + 1e-6

    @given(estimates())
    @settings(max_examples=80, deadline=None)
    def test_fractions_in_unit_interval(self, est):
        assert 0.0 < est.mem_fraction <= 1.0
        assert 0.0 < est.reg_fraction <= 1.0

    @given(estimates())
    @settings(max_examples=80, deadline=None)
    def test_bound_label_consistent(self, est):
        if est.bound == "compute":
            assert est.mem_fraction == 1.0 and est.reg_fraction == 1.0
        elif est.bound == "MEM":
            assert est.mem_fraction < 1.0
        else:
            assert est.reg_fraction < 1.0

    @given(estimates(), st.floats(min_value=1.1, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_more_measured_bandwidth_never_hurts(self, est, factor):
        better = PerformanceEstimate(
            plan=est.plan,
            peak_flops=est.peak_flops,
            execution_efficiency=est.execution_efficiency,
            rbw_mem=est.rbw_mem,
            mbw_mem=est.mbw_mem * factor,
            rbw_reg=est.rbw_reg,
            mbw_reg=est.mbw_reg,
        )
        assert better.flops >= est.flops - 1e-6


class TestModelMonotonicity:
    @given(
        st.sampled_from([64, 128, 192, 256, 320, 384]),
        st.sampled_from([64, 128, 192, 256, 320, 384]),
    )
    @settings(max_examples=30, deadline=None)
    def test_batch_plan_improves_with_no(self, no_a, no_b):
        assume(no_a < no_b)
        model = PerformanceModel()
        low = model.batch_plan(k_c=3, n_o=no_a, b=128, n_i=128)
        high = model.batch_plan(k_c=3, n_o=no_b, b=128, n_i=128)
        assert high.flops >= low.flops - 1e-6

    @given(st.sampled_from([16, 32, 64, 128, 256, 384]))
    @settings(max_examples=20, deadline=None)
    def test_ee_bounded(self, ni):
        model = PerformanceModel()
        assert 0.5 < model._ee(ni) < 1.0
