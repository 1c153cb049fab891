"""Dual-issue pipeline simulator: the Section VI-A issue rules."""

import pytest

from repro.isa.pipeline import DualPipelineSimulator
from repro.isa.program import Program


@pytest.fixture
def sim():
    return DualPipelineSimulator()


def _load(prog, dst, idx=0):
    return prog.emit("vload", dst=dst, addr=("A", (idx,)))


class TestStructuralRules:
    def test_two_loads_serialize_on_p1(self, sim):
        prog = Program()
        _load(prog, "a", 0)
        _load(prog, "b", 1)
        report = sim.simulate(prog)
        assert report.total_cycles == 2
        assert report.dual_issue_cycles == 0

    def test_independent_p0_p1_pair_dual_issues(self, sim):
        prog = Program()
        prog.emit("vfmad", dst="c", srcs=("x", "y"))
        _load(prog, "a")
        report = sim.simulate(prog)
        assert report.total_cycles == 1
        assert report.dual_issue_cycles == 1

    def test_two_fmas_serialize_on_p0(self, sim):
        prog = Program()
        prog.emit("vfmad", dst="c", srcs=("x", "y"))
        prog.emit("vfmad", dst="d", srcs=("x", "y"))
        assert sim.simulate(prog).total_cycles == 2

    def test_either_op_prefers_p1_but_takes_p0(self, sim):
        # cmp pairs with a load by moving to P0.
        prog = Program()
        _load(prog, "a")
        prog.emit("cmp", dst="f", srcs=("cnt",), imm=1)
        report = sim.simulate(prog)
        assert report.total_cycles == 1
        pipes = {r.instruction.op: r.pipeline for r in report.records}
        assert pipes["vload"] == "P1"
        assert pipes["cmp"] == "P0"


class TestDataHazards:
    def test_raw_from_load_waits_4_cycles(self, sim):
        prog = Program()
        _load(prog, "a")  # issues at 0, ready at 4
        prog.emit("vfmad", dst="c", srcs=("a", "a"))
        report = sim.simulate(prog)
        assert report.issue_cycle(1) == 4

    def test_fma_chain_waits_7_cycles(self, sim):
        prog = Program()
        prog.emit("vfmad", dst="c", srcs=("x", "y"))
        prog.emit("vfmad", dst="c", srcs=("x", "y"))  # RAW on accumulator c
        report = sim.simulate(prog)
        assert report.issue_cycle(1) == 7

    def test_independent_fmas_fully_pipelined(self, sim):
        prog = Program()
        for i in range(4):
            prog.emit("vfmad", dst=f"c{i}", srcs=("x", "y"))
        report = sim.simulate(prog)
        assert report.total_cycles == 4

    def test_raw_within_pair_blocks_dual_issue(self, sim):
        prog = Program()
        _load(prog, "a")
        prog.emit("vstore", srcs=("a",), addr=("O", (0,)))  # needs a (RAW)
        report = sim.simulate(prog)
        assert report.issue_cycle(1) >= 4

    def test_waw_ordering_enforced(self, sim):
        prog = Program()
        _load(prog, "a", 0)  # completes at 4
        prog.emit("ldi", dst="a", imm=1.0)  # 1-cycle write to same reg
        report = sim.simulate(prog)
        # The second write may not complete before the first.
        first, second = report.records
        assert second.complete >= first.complete

    def test_war_pair_allowed_same_cycle(self, sim):
        prog = Program()
        prog.emit("vfmad", dst="c", srcs=("a", "b"))  # reads a
        _load(prog, "a")  # writes a — WAR, fine in the same cycle
        report = sim.simulate(prog)
        assert report.total_cycles == 1


class TestControlRules:
    def test_branch_issues_alone(self, sim):
        prog = Program()
        prog.emit("bnw", srcs=())
        prog.emit("vfmad", dst="c", srcs=("x", "y"))
        report = sim.simulate(prog)
        assert report.issue_cycle(0) == 0
        assert report.issue_cycle(1) == 1

    def test_nothing_pairs_with_branch_before_it(self, sim):
        prog = Program()
        prog.emit("vfmad", dst="c", srcs=("x", "y"))
        prog.emit("bnw", srcs=())
        report = sim.simulate(prog)
        assert report.issue_cycle(1) == 1

    def test_cmp_latency_2_delays_branch(self, sim):
        prog = Program()
        prog.emit("cmp", dst="flag", srcs=("cnt",), imm=8)
        prog.emit("bnw", srcs=("flag",))
        report = sim.simulate(prog)
        assert report.issue_cycle(1) == 2


class TestReport:
    def test_fma_efficiency(self, sim):
        prog = Program()
        prog.emit("vfmad", dst="c", srcs=("x", "y"))
        _load(prog, "a")
        report = sim.simulate(prog)
        assert report.fma_efficiency == 1.0

    def test_ipc(self, sim):
        prog = Program()
        prog.emit("vfmad", dst="c", srcs=("x", "y"))
        _load(prog, "a")
        assert sim.simulate(prog).ipc == 2.0

    def test_timeline_renders(self, sim):
        prog = Program()
        _load(prog, "a")
        text = sim.simulate(prog).timeline()
        assert "P0" in text and "P1" in text and "vload" in text

    def test_empty_program(self, sim):
        report = sim.simulate(Program())
        assert report.total_cycles == 0
        assert report.fma_efficiency == 0.0


class TestBoundaries:
    """The optional record of the state after each branch."""

    def test_state_is_relative_to_the_cycle_after_the_branch(self, sim):
        prog = Program()
        prog.emit("vfmad", dst="c", srcs=("x", "y"))  # cycle 0, done 7
        prog.emit("bnw", srcs=())  # cycle 1
        _load(prog, "a")  # cycle 2, done 6
        prog.emit("bnw", srcs=())  # cycle 3
        boundaries = []
        report = sim.simulate(prog, boundaries)
        assert boundaries == [
            (2, (("c", 5, 5),)),
            (4, (("a", 2, 2), ("c", 3, 3))),
        ]
        assert report == sim.simulate(prog)

    def test_completed_registers_drop_out(self, sim):
        prog = Program()
        _load(prog, "a")  # done 4
        for _ in range(4):
            prog.emit("bnw", srcs=())
        boundaries = []
        sim.simulate(prog, boundaries)
        assert boundaries == [(2, (("a", 2, 2),)), (3, (("a", 1, 1),)), (4, ()), (5, ())]
