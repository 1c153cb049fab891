"""The GEMM inner kernels: the paper's Section VI-B cycle accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.register_blocking import enumerate_gemm_blockings
from repro.isa import kernels
from repro.isa.kernels import (
    GemmKernelSpec,
    gemm_kernel_original,
    gemm_kernel_reordered,
    kernel_execution_efficiency,
    paper_execution_efficiency,
    reordered_kernel_cycles,
)
from repro.isa.pipeline import DualPipelineSimulator
from repro.isa.program import Interpreter, MachineState

#: Every register shape the tuner searches, as (num_a, num_b).
SHAPES = [(rb.rb_b // 4, rb.rb_no) for rb in enumerate_gemm_blockings()]

#: The (5..12, 1) shapes reach their steady state only at the third
#: iteration: (5, 1) runs 10, 19, 27, 35 ... cycles, a first step of 9 and
#: then 8, so no affine fit through K = 1, 2, 3 holds for them.
LATE_SETTLING = [(num_a, 1) for num_a in range(5, 13)]


def _run_functional(program, spec, seed=0):
    """Interpret a kernel and return its accumulator values."""
    rng = np.random.default_rng(seed)
    st_ = MachineState()
    for it in range(spec.iterations):
        for i in range(spec.num_a):
            st_.store("A", (it, i), rng.standard_normal(4))
        for j in range(spec.num_b):
            st_.store("B", (it, j), rng.standard_normal(1))
    for i in range(spec.num_a):
        for j in range(spec.num_b):
            st_.write_reg(f"C{i}{j}", np.zeros(4))
    st_.write_reg("cnt", np.asarray(0.0))
    Interpreter(st_).run(program)
    return {
        f"C{i}{j}": st_.read_reg(f"C{i}{j}")
        for i in range(spec.num_a)
        for j in range(spec.num_b)
    }


class TestPaperCycleCounts:
    """The exact numbers of Section VI-B."""

    def test_original_is_26_cycles_per_iteration(self):
        sim = DualPipelineSimulator()
        for k in (1, 2, 8, 16):
            spec = GemmKernelSpec(iterations=k)
            report = sim.simulate(gemm_kernel_original(spec))
            assert report.total_cycles == 26 * k

    def test_original_ee_is_61_5_percent(self):
        spec = GemmKernelSpec(iterations=16)
        report = DualPipelineSimulator().simulate(gemm_kernel_original(spec))
        assert report.fma_efficiency == pytest.approx(16 / 26, abs=1e-9)

    def test_reordered_is_5_plus_17k_minus_1_plus_16(self):
        sim = DualPipelineSimulator()
        for k in (1, 2, 3, 8, 16, 48):
            spec = GemmKernelSpec(iterations=k)
            report = sim.simulate(gemm_kernel_reordered(spec))
            assert report.total_cycles == 5 + 17 * (k - 1) + 16

    def test_derived_steady_state_is_section_vi(self):
        """The probe finds the paper's 17-cycle iteration and 16-cycle exit."""
        p, cycle, ii, exit_cycles = kernels._steady_state(4, 4)
        assert (p, cycle, ii, exit_cycles) == (1, 5 + 17, 17, 16)
        spec = GemmKernelSpec(iterations=16)
        assert reordered_kernel_cycles(spec) == 276
        full = DualPipelineSimulator().simulate(gemm_kernel_reordered(spec))
        assert full.total_cycles == 276

    def test_measured_ee_equals_paper_formula(self):
        # Both sides divide the same two integers.
        for ni in range(8, 385, 8):
            spec = GemmKernelSpec.for_input_channels(ni)
            assert kernel_execution_efficiency(spec) == paper_execution_efficiency(ni)

    def test_ee_increases_with_ni(self):
        values = [paper_execution_efficiency(ni) for ni in (32, 64, 128, 384)]
        assert values == sorted(values)

    def test_paper_ee_at_128(self):
        # (16*16)/(5+15*17+16) = 256/276
        assert paper_execution_efficiency(128) == pytest.approx(256 / 276)


class TestDerivedCycles:
    """The probe-derived cycle count is the integer a full simulation counts."""

    DEPTHS = (*range(1, 9), 16, 48, 64)

    def test_tuner_shapes(self):
        assert len(SHAPES) == 42
        assert set(LATE_SETTLING) <= set(SHAPES)

    @pytest.mark.parametrize("num_a, num_b", SHAPES, ids=str)
    def test_equals_full_simulation(self, num_a, num_b):
        sim = DualPipelineSimulator()
        for k in self.DEPTHS:
            spec = GemmKernelSpec(iterations=k, num_a=num_a, num_b=num_b)
            report = sim.simulate(gemm_kernel_reordered(spec))
            assert reordered_kernel_cycles(spec) == report.total_cycles, k
            assert float.hex(kernel_execution_efficiency(spec)) == float.hex(
                report.fma_efficiency
            ), k

    @pytest.mark.parametrize("num_a, num_b", LATE_SETTLING, ids=str)
    def test_late_settling_shapes(self, num_a, num_b):
        p, _, ii, _ = kernels._steady_state(num_a, num_b)
        assert p == 2
        cycles = [
            reordered_kernel_cycles(GemmKernelSpec(k, num_a, num_b))
            for k in range(1, 5)
        ]
        steps = [b - a for a, b in zip(cycles, cycles[1:])]
        assert steps[0] != ii and steps[1:] == [ii, ii]

    def test_five_by_one_cycles(self):
        assert [
            reordered_kernel_cycles(GemmKernelSpec(k, 5, 1)) for k in (1, 2, 3, 4)
        ] == [10, 19, 27, 35]

    def test_no_repeat_within_the_probe_simulates_in_full(self, monkeypatch):
        """A shape that has not settled by the probe's last boundary is never
        extrapolated: every depth runs the full simulation."""
        monkeypatch.setattr(kernels, "_PROBE_ITERATIONS", 3)
        kernels._steady_state.cache_clear()
        try:
            assert kernels._steady_state(5, 1) is None
            for k in (1, 4, 9):
                spec = GemmKernelSpec(k, 5, 1)
                full = DualPipelineSimulator().simulate(gemm_kernel_reordered(spec))
                assert reordered_kernel_cycles(spec) == full.total_cycles
        finally:
            kernels._steady_state.cache_clear()


class TestKernelStructure:
    def test_original_instruction_mix(self):
        spec = GemmKernelSpec(iterations=3)
        prog = gemm_kernel_original(spec)
        assert prog.count_op("vload") == 4 * 3
        assert prog.count_op("vldde") == 4 * 3
        assert prog.count_op("vfmad") == 16 * 3
        assert prog.count_op("cmp") == 3
        assert prog.count_op("bnw") == 3

    def test_reordered_same_fma_count(self):
        spec = GemmKernelSpec(iterations=5)
        assert gemm_kernel_reordered(spec).count_op("vfmad") == 80

    def test_reordered_branch_only_between_iterations(self):
        spec = GemmKernelSpec(iterations=4)
        assert gemm_kernel_reordered(spec).count_op("bnw") == 3

    def test_flop_counts_match(self):
        spec = GemmKernelSpec(iterations=6)
        assert (
            gemm_kernel_original(spec).flop_count()
            == gemm_kernel_reordered(spec).flop_count()
        )

    def test_invalid_iterations_rejected(self):
        with pytest.raises(ValueError):
            GemmKernelSpec(iterations=0)

    def test_ni_must_divide_by_8(self):
        with pytest.raises(ValueError):
            GemmKernelSpec.for_input_channels(100)
        with pytest.raises(ValueError):
            paper_execution_efficiency(100)


class TestSemanticEquivalence:
    """Reordering must not change what the kernel computes."""

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=999))
    @settings(max_examples=25, deadline=None)
    def test_original_equals_reordered(self, iterations, seed):
        spec = GemmKernelSpec(iterations=iterations)
        acc_orig = _run_functional(gemm_kernel_original(spec), spec, seed)
        acc_reord = _run_functional(gemm_kernel_reordered(spec), spec, seed)
        for name in acc_orig:
            assert np.allclose(acc_orig[name], acc_reord[name])

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_equivalence_for_other_block_shapes(self, iterations, num_a, num_b):
        spec = GemmKernelSpec(iterations=iterations, num_a=num_a, num_b=num_b)
        acc_orig = _run_functional(gemm_kernel_original(spec), spec, 7)
        acc_reord = _run_functional(gemm_kernel_reordered(spec), spec, 7)
        for name in acc_orig:
            assert np.allclose(acc_orig[name], acc_reord[name])

    @given(st.integers(min_value=1, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_reordered_never_slower(self, iterations):
        sim = DualPipelineSimulator()
        spec = GemmKernelSpec(iterations=iterations)
        orig = sim.simulate(gemm_kernel_original(spec)).total_cycles
        reord = sim.simulate(gemm_kernel_reordered(spec)).total_cycles
        assert reord < orig
