"""The instruction-reordering passes of Section VI-B.

The paper's optimization proceeds in three steps:

1. **Dependence analysis** — build the RAW/WAW/WAR graph of the loop body
   and annotate edges with latencies (loads must issue 4 cycles before
   their consumers; FMAs 7 cycles before theirs).
2. **Intra-loop pipelining and reordering** — hoist loads so every FMA's
   operands are ready when it reaches the issue stage, and pair P1
   operations with P0 operations.
3. **Inter-loop pipelining** — issue the next iteration's loads under the
   current iteration's FMAs, with an initial section before the loop and an
   exit section for the last iteration.

Step 3 for the GEMM kernel is :func:`software_pipeline_gemm` (it emits the
schedule of Fig. 6's right side; see :mod:`repro.isa.kernels`).  Steps 1-2
are implemented generically: :func:`analyze_dependences` works on any
program, and :func:`list_schedule` reorders any branch-free block by greedy
list scheduling against the dual-issue machine model, provably preserving
the dependence order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.common.errors import SimulationError
from repro.isa.instructions import PipelineClass
from repro.isa.program import Program


@dataclass(frozen=True)
class DependenceEdge:
    """A dependence from instruction ``src`` to instruction ``dst``.

    ``min_gap`` is the minimum issue-cycle distance: the producer's latency
    for RAW/WAW, zero for WAR (operands are read at issue, so a WAR pair may
    even share a cycle, but program order must keep the reader first).
    """

    src: int
    dst: int
    kind: str  # "RAW" | "WAW" | "WAR"
    register: str
    min_gap: int


class DependenceGraph:
    """Dependence DAG over a program's instruction indices."""

    def __init__(self, n: int):
        self.n = n
        self.edges: List[DependenceEdge] = []
        self.successors: Dict[int, List[DependenceEdge]] = {i: [] for i in range(n)}
        self.predecessors: Dict[int, List[DependenceEdge]] = {i: [] for i in range(n)}

    def add(self, edge: DependenceEdge) -> None:
        self.edges.append(edge)
        self.successors[edge.src].append(edge)
        self.predecessors[edge.dst].append(edge)

    def critical_path_length(self, index: int, _memo: Optional[Dict[int, int]] = None) -> int:
        """Longest latency-weighted path from ``index`` to any sink."""
        memo = _memo if _memo is not None else {}
        if index in memo:
            return memo[index]
        best = 0
        for edge in self.successors[index]:
            best = max(best, max(edge.min_gap, 1) + self.critical_path_length(edge.dst, memo))
        memo[index] = best
        return best

    def respects(self, order: List[int]) -> bool:
        """Whether a permutation keeps every dependence's direction."""
        position = {instr: pos for pos, instr in enumerate(order)}
        return all(position[e.src] < position[e.dst] for e in self.edges)


def analyze_dependences(program: Program) -> DependenceGraph:
    """Step 1: build the RAW/WAW/WAR graph of a program."""
    graph = DependenceGraph(len(program))
    last_writer: Dict[str, int] = {}
    readers_since_write: Dict[str, List[int]] = {}
    for idx, instr in enumerate(program):
        for reg in dict.fromkeys(instr.reads):
            writer = last_writer.get(reg)
            if writer is not None:
                graph.add(
                    DependenceEdge(
                        writer, idx, "RAW", reg, program[writer].spec.latency
                    )
                )
            readers_since_write.setdefault(reg, []).append(idx)
        for reg in instr.writes:
            writer = last_writer.get(reg)
            if writer is not None:
                graph.add(
                    DependenceEdge(
                        writer, idx, "WAW", reg, program[writer].spec.latency
                    )
                )
            for reader in readers_since_write.get(reg, []):
                if reader != idx:
                    graph.add(DependenceEdge(reader, idx, "WAR", reg, 0))
            readers_since_write[reg] = []
            last_writer[reg] = idx
    return graph


def list_schedule(program: Program) -> Program:
    """Step 2: greedy list scheduling of a branch-free block.

    Simulates the dual-issue machine cycle by cycle, each cycle issuing up
    to one P0 and one P1 instruction chosen from the dependence-ready set by
    descending critical-path length.  The emitted program order is the issue
    order, so running the result through
    :class:`~repro.isa.pipeline.DualPipelineSimulator` achieves (at most)
    the cycle count the scheduler found, and running it through the
    sequential interpreter computes exactly what the original did.
    """
    for instr in program:
        if instr.spec.is_branch:
            raise SimulationError(
                "list_schedule operates on branch-free blocks; software-"
                "pipeline the loop first (software_pipeline_gemm)"
            )
    graph = analyze_dependences(program)
    n = len(program)
    memo: Dict[int, int] = {}
    priority = {i: graph.critical_path_length(i, memo) for i in range(n)}

    unscheduled: Set[int] = set(range(n))
    issue_cycle: Dict[int, int] = {}
    scheduled_order: List[int] = []
    cycle = 0
    guard = 0
    while unscheduled:
        guard += 1
        if guard > 10000 * (n + 1):  # pragma: no cover - defensive
            raise SimulationError("list scheduler failed to converge")
        ready: List[int] = []
        for idx in unscheduled:
            ok = True
            for edge in graph.predecessors[idx]:
                if edge.src in unscheduled:
                    ok = False
                    break
                if issue_cycle[edge.src] + edge.min_gap > cycle:
                    ok = False
                    break
            if ok:
                ready.append(idx)
        # Highest critical path first; original order breaks ties.
        ready.sort(key=lambda i: (-priority[i], i))
        p0_free, p1_free = True, True
        issued_this_cycle: List[int] = []
        for idx in ready:
            pipe = program[idx].spec.pipeline
            if pipe is PipelineClass.P0 and p0_free:
                p0_free = False
            elif pipe is PipelineClass.P1 and p1_free:
                p1_free = False
            elif pipe is PipelineClass.EITHER and (p0_free or p1_free):
                if p1_free:
                    p1_free = False
                else:
                    p0_free = False
            else:
                continue
            # Same-cycle WAR is fine (reads happen at issue) but the reader
            # must precede the writer in the emitted order; same-cycle
            # RAW/WAW between the pair is impossible because min_gap >= 1.
            issue_cycle[idx] = cycle
            issued_this_cycle.append(idx)
            if not p0_free and not p1_free:
                break
        # Emit same-cycle instructions with WAR readers before writers.
        def emit_key(i: int) -> Tuple[int, int]:
            war_writer = any(
                e.kind == "WAR" and e.dst == i and e.src in issued_this_cycle
                for e in graph.predecessors[i]
            )
            return (1 if war_writer else 0, i)

        for idx in sorted(issued_this_cycle, key=emit_key):
            scheduled_order.append(idx)
            unscheduled.discard(idx)
        cycle += 1

    result = Program(name=f"{program.name}+scheduled" if program.name else "scheduled")
    result.extend(program[i] for i in scheduled_order)
    if not graph.respects(scheduled_order):  # pragma: no cover - invariant
        raise SimulationError("list scheduler violated a dependence")
    return result


def software_pipeline_gemm(iterations: int, num_a: int = 4, num_b: int = 4) -> Program:
    """Step 3 for the GEMM kernel: the full reordered loop of Fig. 6."""
    from repro.isa.kernels import GemmKernelSpec, gemm_kernel_reordered

    return gemm_kernel_reordered(
        GemmKernelSpec(iterations=iterations, num_a=num_a, num_b=num_b)
    )
