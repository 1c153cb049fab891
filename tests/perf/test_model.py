"""The composed three-level performance model."""

import pytest

from repro.common.units import GB
from repro.perf.model import PerformanceEstimate, PerformanceModel


@pytest.fixture
def model():
    return PerformanceModel()


class TestDirectMemory:
    def test_efficiency_matches_paper(self, model):
        direct = model.direct_memory()
        assert direct.efficiency == pytest.approx((8 / 139.2) ** 2, rel=1e-3)

    def test_gflops_tiny(self, model):
        assert model.direct_memory().gflops < 3.0

    def test_bound_is_mem(self, model):
        assert model.direct_memory().bound == "MEM"


class TestHierarchicalEstimates:
    def test_image_plan_estimate(self, model):
        est = model.image_plan(b_co=16, b_b=32, n_o=128, n_i=128)
        assert est.rbw_mem / GB == pytest.approx(29.0, abs=0.05)
        assert 0 < est.gflops < 742.4

    def test_batch_plan_estimate(self, model):
        est = model.batch_plan(k_c=3, n_o=256, b=128, n_i=256)
        assert est.rbw_mem / GB == pytest.approx(27.1, abs=0.05)

    def test_register_level_not_the_bound_at_paper_blocking(self, model):
        est = model.batch_plan(k_c=3, n_o=256, b=128, n_i=256)
        assert est.reg_fraction == 1.0

    def test_tiny_register_blocking_becomes_bound(self, model):
        est = model.batch_plan(k_c=3, n_o=256, b=128, n_i=256, rb_b=4, rb_no=1)
        assert est.reg_fraction < 1.0

    def test_ee_uses_kernel_simulation(self, model):
        est = model.batch_plan(k_c=3, n_o=256, b=128, n_i=128)
        assert est.execution_efficiency == pytest.approx(256 / 276, abs=1e-9)

    def test_ee_rounds_up_partial_iterations(self, model):
        assert model._ee(4) == model._ee(8)
        with pytest.raises(ValueError):
            model._ee(0)

    def test_more_output_channels_help(self, model):
        low = model.batch_plan(k_c=3, n_o=64, b=128, n_i=128)
        high = model.batch_plan(k_c=3, n_o=384, b=128, n_i=128)
        assert high.flops > low.flops


class TestEstimateProperties:
    def test_flops_composition(self):
        est = PerformanceEstimate(
            plan="x",
            peak_flops=100e9,
            execution_efficiency=0.9,
            rbw_mem=2.0,
            mbw_mem=1.0,
            rbw_reg=1.0,
            mbw_reg=2.0,
        )
        assert est.mem_fraction == pytest.approx(0.25)
        assert est.reg_fraction == 1.0
        assert est.flops == pytest.approx(100e9 * 0.9 * 0.25)
        assert est.bound == "MEM"

    def test_compute_bound_label(self):
        est = PerformanceEstimate(
            plan="x",
            peak_flops=1.0,
            execution_efficiency=1.0,
            rbw_mem=1.0,
            mbw_mem=2.0,
            rbw_reg=1.0,
            mbw_reg=2.0,
        )
        assert est.bound == "compute"

    def test_reg_bound_label(self):
        est = PerformanceEstimate(
            plan="x",
            peak_flops=1.0,
            execution_efficiency=1.0,
            rbw_mem=1.0,
            mbw_mem=2.0,
            rbw_reg=4.0,
            mbw_reg=2.0,
        )
        assert est.bound == "REG"


class TestMeasuredEEMemo:
    def test_default_and_explicit_register_shape_share_one_entry(self):
        """``_measured_ee(k)`` (the model's call) and ``_measured_ee(k, 4, 4)``
        (the tuner's and the engine's) are one memo entry."""
        from repro.perf import model

        model._kernel_ee.cache_clear()
        assert model._measured_ee(3) == model._measured_ee(3, 4, 4)
        info = model._kernel_ee.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestChipEstimate:
    def test_linear_scaling(self, model):
        est = model.batch_plan(k_c=3, n_o=256, b=128, n_i=256)
        assert model.chip_estimate(est) == pytest.approx(4 * est.flops)

    def test_num_groups_validated(self, model):
        est = model.direct_memory()
        with pytest.raises(ValueError):
            model.chip_estimate(est, num_groups=5)
