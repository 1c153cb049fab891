"""Dependence analysis and the generic reordering passes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SimulationError
from repro.isa.pipeline import DualPipelineSimulator
from repro.isa.program import Interpreter, MachineState, Program
from repro.isa.scheduler import (
    analyze_dependences,
    list_schedule,
    software_pipeline_gemm,
)


def _gemm_body():
    """One branch-free iteration body in the original (slow) order."""
    prog = Program(name="body")
    for i in range(4):
        prog.emit("vload", dst=f"A{i}", addr=("A", (0, i)))
    for j in range(4):
        prog.emit("vldde", dst=f"B{j}", addr=("B", (0, j)))
    for i in range(4):
        for j in range(4):
            prog.emit("vfmad", dst=f"C{i}{j}", srcs=(f"A{i}", f"B{j}"))
    return prog


class TestDependenceAnalysis:
    def test_raw_edge_with_latency(self):
        prog = Program()
        prog.emit("vload", dst="a", addr=("A", (0,)))
        prog.emit("vfmad", dst="c", srcs=("a", "a"))
        graph = analyze_dependences(prog)
        raw = [e for e in graph.edges if e.kind == "RAW"]
        assert len(raw) == 1
        assert raw[0].min_gap == 4

    def test_waw_edge(self):
        prog = Program()
        prog.emit("vload", dst="a", addr=("A", (0,)))
        prog.emit("vload", dst="a", addr=("A", (1,)))
        graph = analyze_dependences(prog)
        assert any(e.kind == "WAW" for e in graph.edges)

    def test_war_edge_zero_gap(self):
        prog = Program()
        prog.emit("vfmad", dst="c", srcs=("a", "b"))
        prog.emit("vload", dst="a", addr=("A", (0,)))
        graph = analyze_dependences(prog)
        war = [e for e in graph.edges if e.kind == "WAR"]
        assert war and war[0].min_gap == 0

    def test_fma_chain_is_raw(self):
        prog = Program()
        prog.emit("vfmad", dst="c", srcs=("a", "b"))
        prog.emit("vfmad", dst="c", srcs=("a", "b"))
        graph = analyze_dependences(prog)
        raw = [e for e in graph.edges if e.kind == "RAW" and e.register == "c"]
        assert raw and raw[0].min_gap == 7

    def test_respects_identity_order(self):
        prog = _gemm_body()
        graph = analyze_dependences(prog)
        assert graph.respects(list(range(len(prog))))

    def test_critical_path_positive(self):
        graph = analyze_dependences(_gemm_body())
        assert graph.critical_path_length(0) > 0


class TestListSchedule:
    def test_rejects_branches(self):
        prog = Program()
        prog.emit("bnw", srcs=())
        with pytest.raises(SimulationError):
            list_schedule(prog)

    def test_preserves_instruction_multiset(self):
        prog = _gemm_body()
        scheduled = list_schedule(prog)
        assert sorted(i.render() for i in prog) == sorted(
            i.render() for i in scheduled
        )

    def test_not_slower_than_original(self):
        sim = DualPipelineSimulator()
        prog = _gemm_body()
        assert (
            sim.simulate(list_schedule(prog)).total_cycles
            <= sim.simulate(prog).total_cycles
        )

    def test_respects_dependences(self):
        prog = _gemm_body()
        scheduled = list_schedule(prog)
        graph = analyze_dependences(prog)
        order = [prog.instructions.index(i) for i in scheduled]
        assert graph.respects(order)

    def test_semantics_preserved_on_gemm_body(self):
        prog = _gemm_body()
        scheduled = list_schedule(prog)

        def run(p):
            rng = np.random.default_rng(3)
            state = MachineState()
            for i in range(4):
                state.store("A", (0, i), rng.standard_normal(4))
            for j in range(4):
                state.store("B", (0, j), rng.standard_normal(1))
            for i in range(4):
                for j in range(4):
                    state.write_reg(f"C{i}{j}", np.zeros(4))
            Interpreter(state).run(p)
            return {n: state.read_reg(n) for n in (f"C{i}{j}" for i in range(4) for j in range(4))}

        a, b = run(prog), run(scheduled)
        for name in a:
            assert np.allclose(a[name], b[name])


@st.composite
def random_programs(draw):
    """Random branch-free programs over a small register set."""
    regs = [f"r{i}" for i in range(6)]
    n = draw(st.integers(min_value=1, max_value=20))
    prog = Program()
    for idx in range(n):
        kind = draw(st.sampled_from(["load", "fma", "store"]))
        if kind == "load":
            prog.emit("vload", dst=draw(st.sampled_from(regs)), addr=("M", (idx,)))
        elif kind == "fma":
            prog.emit(
                "vfmad",
                dst=draw(st.sampled_from(regs)),
                srcs=(draw(st.sampled_from(regs)), draw(st.sampled_from(regs))),
            )
        else:
            prog.emit("vstore", srcs=(draw(st.sampled_from(regs)),), addr=("O", (idx,)))
    return prog


class TestListScheduleProperties:
    @given(random_programs())
    @settings(max_examples=40, deadline=None)
    def test_random_programs_schedule_equivalently(self, prog):
        scheduled = list_schedule(prog)

        def run(p):
            state = MachineState()
            rng = np.random.default_rng(11)
            for idx in range(len(p)):
                state.store("M", (idx,), rng.standard_normal(4))
            for i in range(6):
                state.write_reg(f"r{i}", rng.standard_normal(4))
            Interpreter(state).run(p)
            final_regs = {f"r{i}": state.read_reg(f"r{i}") for i in range(6)}
            return final_regs, state.memory.get("O", {})

        regs_a, mem_a = run(prog)
        regs_b, mem_b = run(scheduled)
        for name in regs_a:
            assert np.allclose(regs_a[name], regs_b[name])
        assert set(mem_a) == set(mem_b)
        for key in mem_a:
            assert np.allclose(mem_a[key], mem_b[key])

    @given(random_programs())
    @settings(max_examples=30, deadline=None)
    def test_schedule_respects_dependences(self, prog):
        scheduled = list_schedule(prog)
        graph = analyze_dependences(prog)
        used = [False] * len(prog)
        order = []
        for instr in scheduled:
            for idx, orig in enumerate(prog):
                if not used[idx] and orig is instr:
                    used[idx] = True
                    order.append(idx)
                    break
        assert graph.respects(order)


class TestSoftwarePipeline:
    def test_matches_kernel_generator(self):
        sim = DualPipelineSimulator()
        report = sim.simulate(software_pipeline_gemm(iterations=8))
        assert report.total_cycles == 5 + 17 * 7 + 16
