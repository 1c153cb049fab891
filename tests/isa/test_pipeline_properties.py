"""Property-based invariants of the dual-issue pipeline simulator."""

from hypothesis import given, settings, strategies as st

from repro.isa.instructions import PipelineClass
from repro.isa.pipeline import DualPipelineSimulator
from repro.isa.program import Program


@st.composite
def random_programs(draw):
    regs = [f"r{i}" for i in range(5)]
    n = draw(st.integers(min_value=0, max_value=25))
    prog = Program()
    for idx in range(n):
        kind = draw(st.sampled_from(["load", "fma", "store", "int", "branch"]))
        if kind == "load":
            prog.emit("vload", dst=draw(st.sampled_from(regs)), addr=("M", (idx,)))
        elif kind == "fma":
            prog.emit(
                "vfmad",
                dst=draw(st.sampled_from(regs)),
                srcs=(draw(st.sampled_from(regs)), draw(st.sampled_from(regs))),
            )
        elif kind == "store":
            prog.emit("vstore", srcs=(draw(st.sampled_from(regs)),), addr=("O", (idx,)))
        elif kind == "int":
            prog.emit("addl", dst=draw(st.sampled_from(regs)),
                      srcs=(draw(st.sampled_from(regs)),), imm=1.0)
        else:
            prog.emit("bnw", srcs=(draw(st.sampled_from(regs)),))
    return prog


class TestPipelineInvariants:
    @given(random_programs())
    @settings(max_examples=60, deadline=None)
    def test_every_instruction_issues_exactly_once(self, prog):
        report = DualPipelineSimulator().simulate(prog)
        assert len(report.records) == len(prog)
        assert [r.index for r in report.records] == list(range(len(prog)))

    @given(random_programs())
    @settings(max_examples=60, deadline=None)
    def test_issue_cycles_monotone(self, prog):
        report = DualPipelineSimulator().simulate(prog)
        cycles = [r.cycle for r in report.records]
        assert cycles == sorted(cycles)

    @given(random_programs())
    @settings(max_examples=60, deadline=None)
    def test_structural_lower_bounds(self, prog):
        """Total cycles >= the per-pipeline instruction counts and >= n/2."""
        report = DualPipelineSimulator().simulate(prog)
        p0_only = sum(
            1 for i in prog if i.spec.pipeline is PipelineClass.P0
        )
        p1_only = sum(
            1 for i in prog if i.spec.pipeline is PipelineClass.P1
        )
        assert report.total_cycles >= p0_only
        assert report.total_cycles >= p1_only
        assert report.total_cycles >= -(-len(prog) // 2)

    @given(random_programs())
    @settings(max_examples=60, deadline=None)
    def test_at_most_two_per_cycle_different_pipes(self, prog):
        report = DualPipelineSimulator().simulate(prog)
        by_cycle = {}
        for record in report.records:
            by_cycle.setdefault(record.cycle, []).append(record)
        for records in by_cycle.values():
            assert len(records) <= 2
            if len(records) == 2:
                assert {records[0].pipeline, records[1].pipeline} == {"P0", "P1"}

    @given(random_programs())
    @settings(max_examples=60, deadline=None)
    def test_raw_latency_respected(self, prog):
        report = DualPipelineSimulator().simulate(prog)
        issue = {r.index: r.cycle for r in report.records}
        last_writer = {}
        for idx, instr in enumerate(prog):
            for reg in instr.reads:
                if reg in last_writer:
                    w_idx = last_writer[reg]
                    latency = prog[w_idx].spec.latency
                    assert issue[idx] >= issue[w_idx] + latency
            for reg in instr.writes:
                last_writer[reg] = idx

    @given(random_programs())
    @settings(max_examples=60, deadline=None)
    def test_branches_issue_alone(self, prog):
        report = DualPipelineSimulator().simulate(prog)
        by_cycle = {}
        for record in report.records:
            by_cycle.setdefault(record.cycle, []).append(record)
        for records in by_cycle.values():
            if any(r.instruction.spec.is_branch for r in records):
                assert len(records) == 1
