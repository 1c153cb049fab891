"""Static schedule verifier."""

import pytest

from repro.isa.kernels import GemmKernelSpec, gemm_kernel_reordered
from repro.isa.program import Program
from repro.isa.verifier import assert_clean, verify_program


def _kernel_live_in():
    """The reordered kernel's preloaded state: accumulators + counter."""
    return [f"C{i}{j}" for i in range(4) for j in range(4)] + ["cnt"]


class TestCleanPrograms:
    def test_generated_kernel_is_clean_of_hazard_bugs(self):
        prog = gemm_kernel_reordered(GemmKernelSpec(iterations=4))
        diags = verify_program(
            prog, live_in=_kernel_live_in(), warn_raw_distance=False
        )
        assert diags == []

    def test_assert_clean_passes(self):
        prog = Program()
        prog.emit("vload", dst="a", addr=("M", (0,)))
        for _ in range(4):
            prog.emit("nop")
        prog.emit("vstore", srcs=("a",), addr=("O", (0,)))
        assert_clean(prog)


class TestUseBeforeDef:
    def test_flagged(self):
        prog = Program()
        prog.emit("vfmad", dst="c", srcs=("a", "b"))
        diags = verify_program(prog, live_in=["c"])
        kinds = [d.kind for d in diags]
        assert kinds.count("use-before-def") == 2

    def test_live_in_suppresses(self):
        prog = Program()
        prog.emit("vfmad", dst="c", srcs=("a", "b"))
        diags = verify_program(prog, live_in=["a", "b", "c"], warn_raw_distance=False)
        assert diags == []

    def test_missing_live_out(self):
        diags = verify_program(Program(), live_out=["result"])
        assert diags[0].kind == "use-before-def"


class TestRawDistance:
    def test_tight_consumer_flagged(self):
        prog = Program()
        prog.emit("vload", dst="a", addr=("M", (0,)))
        prog.emit("vstore", srcs=("a",), addr=("O", (0,)))  # 1 slot after a 4-cycle load
        diags = verify_program(prog)
        assert any(d.kind == "raw-too-close" for d in diags)

    def test_spaced_consumer_clean(self):
        prog = Program()
        prog.emit("vload", dst="a", addr=("M", (0,)))
        for i in range(4):
            prog.emit("vload", dst=f"pad{i}", addr=("M", (1 + i,)))
        prog.emit("vstore", srcs=("a",), addr=("O", (0,)))
        diags = [d for d in verify_program(prog) if d.kind == "raw-too-close"]
        assert diags == []

    def test_opt_out(self):
        prog = Program()
        prog.emit("vload", dst="a", addr=("M", (0,)))
        prog.emit("vstore", srcs=("a",), addr=("O", (0,)))
        assert verify_program(prog, warn_raw_distance=False) == []


class TestDeadWrite:
    def test_flagged(self):
        prog = Program()
        prog.emit("ldi", dst="x", imm=1.0)
        prog.emit("ldi", dst="x", imm=2.0)  # first write never read
        diags = verify_program(prog)
        assert any(d.kind == "dead-write" for d in diags)

    def test_read_between_writes_clean(self):
        prog = Program()
        prog.emit("ldi", dst="x", imm=1.0)
        prog.emit("addl", dst="y", srcs=("x",), imm=0.0)
        prog.emit("ldi", dst="x", imm=2.0)
        diags = [d for d in verify_program(prog) if d.kind == "dead-write"]
        assert diags == []

    def test_double_buffered_loads_exempt(self):
        # Back-to-back loads into the same register are the software-
        # pipelined rotation pattern, not a bug.
        prog = Program()
        prog.emit("vload", dst="a", addr=("M", (0,)))
        prog.emit("vload", dst="a", addr=("M", (1,)))
        diags = [d for d in verify_program(prog) if d.kind == "dead-write"]
        assert diags == []


class TestBusBalance:
    def test_unbalanced_flagged(self):
        prog = Program()
        prog.emit("putr", srcs=("a",), addr=("BUS", (0,)))
        diags = verify_program(prog, live_in=["a"])
        assert any(d.kind == "bus-unbalanced" for d in diags)

    def test_balanced_clean(self):
        prog = Program()
        prog.emit("putr", srcs=("a",), addr=("BUS", (0,)))
        prog.emit("getr", dst="b", addr=("BUS", (0,)))
        diags = [
            d
            for d in verify_program(prog, live_in=["a"], warn_raw_distance=False)
            if d.kind == "bus-unbalanced"
        ]
        assert diags == []


class TestAssertClean:
    def test_raises_with_listing(self):
        prog = Program()
        prog.emit("vfmad", dst="c", srcs=("a", "b"))
        with pytest.raises(AssertionError, match="use-before-def"):
            assert_clean(prog)
