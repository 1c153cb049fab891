"""Convolution plans: the loop schedules of Algorithms 1 and 2.

A :class:`ConvPlan` turns layer parameters + blocking choices into two
renderings of one loop nest, which drive the two execution modes of
:class:`repro.core.conv.ConvolutionEngine`:

* the *tile schedule* is the exact sequence of DMA transfers and
  LDM-resident GEMM updates the CPE cluster performs; the functional mode
  walks it and moves real tensor data tile by tile (so the result is
  checked against the NumPy reference);
* the *tile program* is the same walk with each tile's per-(kr, kc)
  transfers merged per tensor, written run-length: an ordered tuple of
  ``(pattern, repeat)`` runs over a handful of distinct, shared
  :class:`TileStep` objects.  The timed mode prices each distinct step once
  (Table II DMA model, reordered-kernel pipeline timing) and computes the
  double-buffered schedule over the per-tile costs as arrays.

``dma_streams()`` aggregates the program's traffic into the per-stream
volumes/block-sizes the performance model blends into its ``MBW``, so the
analytic model and the simulated execution see the same bytes by
construction (a property the test suite checks).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, TypeVar, Union

import numpy as np

from repro.common.errors import PlanError
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.perf.dma_model import DMAStream
from repro.perf.equations import (
    rbw_mem_ldm_batch_plan,
    rbw_mem_ldm_batch_plan_promoted,
    rbw_mem_ldm_image_plan,
    rbw_mem_ldm_image_plan_promoted,
)
from repro.perf.model import PerformanceEstimate, PerformanceModel
from repro.core.layout import (
    DS,
    batch_plan_block_bytes,
    filter_block_bytes,
    image_plan_block_bytes,
)
from repro.core.ldm_blocking import (
    BatchBlocking,
    ImageBlocking,
    assert_fits_in_ldm,
    batch_plan_ldm_bytes,
    choose_batch_blocking,
    choose_image_blocking,
    image_plan_ldm_bytes,
)
from repro.core.params import ConvParams
from repro.core.register_blocking import (
    PAPER_REGISTER_BLOCKING,
    RegisterBlocking,
)


@dataclass(frozen=True)
class TileTransfer:
    """One DMA transfer of a tile step."""

    tensor: str  # "input" | "filter" | "output"
    nbytes: int
    block_bytes: int
    direction: str  # "get" | "put"


@dataclass(frozen=True)
class ComputeSpec:
    """One LDM-GEMM update: out rows x cols += W(kr,kc) . input window.

    ``bb``/``bb_len`` select the batch block; ``co``/``co_len`` the output
    columns; ``ni0``/``ni_len`` the input-channel block (``ni_len = -1``
    means the full reduction); the update is
    ``out[bb:, :, ro, co:co+co_len] += W[:, ni:, kr, kc] @ x[bb:, ni:, ro+kr, co+kc : co+kc+co_len]``.
    """

    bb: int
    bb_len: int
    ro: int
    co: int
    co_len: int
    kr: int
    kc: int
    ni0: int = 0
    ni_len: int = -1


@dataclass
class TileStep:
    """One step of a plan's schedule: loads, computes, stores."""

    gets: List[TileTransfer] = field(default_factory=list)
    computes: List[ComputeSpec] = field(default_factory=list)
    puts: List[TileTransfer] = field(default_factory=list)
    flops: int = 0


#: A tile program: ``(pattern, repeat)`` runs, each meaning "the tiles of
#: ``pattern``, in order, ``repeat`` times over".  Patterns reference a few
#: distinct steps that are shared across runs and never mutated.
TileProgram = Tuple[Tuple[Tuple[TileStep, ...], int], ...]

_T = TypeVar("_T")


def expand_program(program: Iterable[Tuple[Tuple[_T, ...], int]]) -> Iterator[_T]:
    """Unroll ``(pattern, repeat)`` runs into the per-tile sequence.

    Works on a :data:`TileProgram` and on any run-length sequence of the
    same shape (the engine's priced program of step costs).
    """
    return chain.from_iterable(
        chain.from_iterable(repeat(pattern, count)) for pattern, count in program
    )


def _blocks(extent: int, block: int) -> List[Tuple[int, int]]:
    """``(length, count)`` pairs of ``extent`` cut into ``block``-long blocks.

    The full blocks come first, as one pair: they repeat one pattern back
    to back, so they make one run.  The edge block, if any, follows.
    """
    full, edge = divmod(extent, block)
    return [(length, n) for length, n in ((block, full), (edge, 1)) if length and n]


#: Operand bytes (W and D) of one stack of same-shape tile GEMMs that the
#: mesh backends hand to :meth:`~repro.core.register_comm.MeshGemm.multiply`
#: in one call.  Tile GEMMs are tiny (a few KiB), so per-call Python
#: overhead dominates unless many share a call; 256 KiB stacks a few dozen
#: to a few hundred tiles while the stack, its products and the strategy's
#: temporaries stay around a megabyte, so peak memory does not grow with
#: the layer.
MESH_STACK_BYTES = 256 * 1024


#: The shape and element strides of a block of a C-order flattened
#: tensor: the block at offset ``i`` holds ``flat[i + sum(j * stride)]``.
BlockGeometry = Tuple[Tuple[int, ...], Tuple[int, ...]]


@dataclass(frozen=True)
class GemmStack:
    """A run of consecutive same-shape GEMM updates, compiled to offsets.

    Pair ``t`` is one :class:`ComputeSpec` update, in schedule order.  Its
    operands are blocks of the C-order flattened tensors, each addressed
    by the offset of its first element (``*_block`` gives the blocks'
    geometry, shared by every pair of the stack):

    * W: ``w_base[t]`` starts its (No x Ni-block) filter slice;
    * D: ``x_base[t] + x_pattern`` starts, per input channel of the
      Ni-block, the window's ``co_len``-long rows, one per image of the
      batch block.

    ``rounds`` is the scatter schedule, ``(pairs, out_base)`` per round in
    order: ``pairs`` selects the round's pairs (a slice or an index array)
    and ``out_base + out_pattern`` starts, per output channel, the
    ``co_len``-long rows they add to, one per image.  A pair's round is one
    more than the highest round of any earlier pair of the stack that
    writes one of its output elements, so the targets of a round are
    disjoint and every output element still receives its products in
    schedule order.
    """

    #: ``(bb_len, ni_len, co_len)`` of every window of the stack.
    shape: Tuple[int, int, int]
    w_base: np.ndarray
    x_base: np.ndarray
    rounds: Tuple[Tuple[Union[slice, np.ndarray], np.ndarray], ...]
    x_pattern: np.ndarray
    out_pattern: np.ndarray
    w_block: BlockGeometry
    x_block: BlockGeometry
    out_block: BlockGeometry


def _as_slice(index: np.ndarray) -> Union[slice, np.ndarray]:
    """``index`` as a slice when it is an arithmetic progression."""
    if len(index) == 1:
        return slice(int(index[0]), int(index[0]) + 1)
    step = int(index[1] - index[0])
    if (np.diff(index) == step).all():
        return slice(int(index[0]), int(index[-1]) + 1, step)
    return index


def _compile_walk(plan: "ConvPlan") -> Tuple[GemmStack, ...]:
    """Partition the schedule's updates into stacks and compile each.

    A stack is a run of consecutive updates of one window shape, cut where
    its operands would pass :data:`MESH_STACK_BYTES` (an update larger
    than that runs alone).
    """
    p = plan.params
    computes = [c for step in plan.compiled_schedule() for c in step.computes]
    fields = np.array(
        [
            (c.bb, c.ro, c.co, c.kr, c.kc, c.ni0,
             c.bb_len, c.ni_len if c.ni_len >= 0 else p.ni, c.co_len)
            for c in computes
        ],
        dtype=np.intp,
    )
    bb, ro, co, kr, kc, ni0 = fields[:, :6].T
    shapes = fields[:, 6:]
    w_base = (ni0 * p.kr + kr) * p.kc + kc
    x_base = ((bb * p.ni + ni0) * p.ri + ro + kr) * p.ci + co + kc
    out_base = (bb * p.no * p.ro + ro) * p.co + co
    targets = fields[:, :3].tolist()
    # The round that last wrote each output (batch, row, column), all
    # channels at once; rounds are numbered across stacks, and ``floor``
    # is the current stack's first.
    last = np.full((p.b, p.ro, p.co), -1, dtype=np.intp)
    floor = 0
    layouts: Dict[Tuple[int, int, int], tuple] = {}
    stacks = []
    cuts = (np.flatnonzero((shapes[1:] != shapes[:-1]).any(axis=1)) + 1).tolist()
    for start, stop in zip([0] + cuts, cuts + [len(computes)]):
        shape = bb_len, ni_len, co_len = tuple(shapes[start].tolist())
        pair_bytes = (p.no * ni_len + bb_len * ni_len * co_len) * DS
        per_stack = max(1, MESH_STACK_BYTES // pair_bytes)
        layout = layouts.get(shape)
        if layout is None:
            layout = layouts[shape] = (
                np.arange(ni_len) * (p.ri * p.ci),
                np.arange(p.no) * (p.ro * p.co),
                ((p.no, ni_len), (p.ni * p.kr * p.kc, p.kr * p.kc)),
                ((bb_len, co_len), (p.ni * p.ri * p.ci, 1)),
                ((bb_len, co_len), (p.no * p.ro * p.co, 1)),
            )
        for first in range(start, stop, per_stack):
            end = min(stop, first + per_stack)
            rounds = []
            for b0, r0, c0 in targets[first:end]:
                cells = last[b0 : b0 + bb_len, r0, c0 : c0 + co_len]
                rnd = max(int(cells.max()), floor - 1) + 1
                cells[...] = rnd
                rounds.append(rnd - floor)
            count = max(rounds) + 1
            floor += count
            members = [np.flatnonzero(np.equal(rounds, r)) for r in range(count)]
            stacks.append(
                GemmStack(
                    shape,
                    w_base[first:end],
                    x_base[first:end],
                    tuple((_as_slice(m), out_base[first + m]) for m in members),
                    *layout,
                )
            )
    return tuple(stacks)


class ConvPlan(abc.ABC):
    """Base class of the two loop-schedule families."""

    name: str = "abstract"
    #: Algorithm family of the zoo (see :mod:`repro.core.algorithms`); both
    #: loop-schedule families here execute the paper's direct summation.
    algorithm: str = "direct"

    def __init__(
        self,
        params: ConvParams,
        register_blocking: RegisterBlocking = PAPER_REGISTER_BLOCKING,
        spec: SW26010Spec = DEFAULT_SPEC,
    ):
        self.params = params
        self.register_blocking = register_blocking
        self.spec = spec
        register_blocking.check_feasible(spec)
        self._streams_cache: Optional[List[DMAStream]] = None
        self._schedule: Optional[Tuple[TileStep, ...]] = None
        self._walk: Optional[Tuple[GemmStack, ...]] = None

    # -- schedule -------------------------------------------------------------

    @abc.abstractmethod
    def tile_schedule(self) -> Iterator[TileStep]:
        """Yield the plan's full tile steps in execution order.

        Every step carries its per-(kr, kc, ni-block) transfers and the
        :class:`ComputeSpec` list of GEMM updates — what the functional
        engine needs to slice real tensors.
        """

    @abc.abstractmethod
    def tile_program(self) -> TileProgram:
        """The timed walk of the schedule, run-length encoded.

        Each tile merges its per-(kr, kc) transfers into one aggregate
        transfer per tensor (identical bytes, identical block sizes, so
        identical DMA time) and carries no :class:`ComputeSpec`.  A plan
        has at most five distinct such tiles and at most two runs, the full
        blocks' and the edge block's, over shared steps;
        :func:`expand_program` unrolls it tile by tile.  The timed
        evaluation and the traffic aggregation read it.
        """

    def compiled_schedule(self) -> Tuple[TileStep, ...]:
        """The full tile schedule, materialized once and cached.

        Generating a schedule walks the full blocked loop nest in Python;
        for repeated functional executions of the same plan (training, the
        handle's plan cache) that regeneration dominates, so the first call
        compiles the schedule to a tuple and later calls reuse it.  Callers
        must treat the cached steps as immutable.  Timed walks never need
        it: they read the (uncached, tiny) :meth:`tile_program`.
        """
        if self._schedule is None:
            self._schedule = tuple(self.tile_schedule())
        return self._schedule

    def compiled_walk(self) -> Tuple[GemmStack, ...]:
        """The schedule's updates as the mesh backends run them, cached.

        Consecutive updates of one window shape form a :class:`GemmStack`
        of up to :data:`MESH_STACK_BYTES` of operands, compiled once to flat
        operand offsets and a scatter schedule; every engine of the plan
        (the planner hands out one plan object per layer) shares it.
        """
        if self._walk is None:
            self._walk = _compile_walk(self)
        return self._walk

    def signature(self) -> Tuple:
        """Hashable identity of the schedule this plan generates.

        Two plans with equal signatures produce identical tile schedules
        and model inputs — the key the timing memoization layers use.
        """
        return (
            self.name,
            self.params,
            getattr(self, "blocking", None),
            self.register_blocking,
            self.spec,
        )

    @abc.abstractmethod
    def ldm_regions(self) -> List[Tuple[str, int]]:
        """Per-CPE LDM regions the plan allocates."""

    @abc.abstractmethod
    def rbw_mem(self) -> float:
        """Required MEM->LDM bandwidth (Eq. 1 or Eq. 2), bytes/s."""

    def validate(self) -> None:
        """Check LDM feasibility (raises on overflow)."""
        assert_fits_in_ldm(self.ldm_regions(), self.spec)

    # -- traffic and modeling ---------------------------------------------------

    def dma_streams(self) -> List[DMAStream]:
        """Aggregate the program's DMA traffic per (tensor, direction).

        The block size reported per stream is the byte-weighted dominant
        block of that stream (steady-state tiles dominate edge tiles).
        Each pattern's transfers count once per repeat; the totals are
        exact integers, so the order of accumulation cannot matter.
        """
        if self._streams_cache is not None:
            return self._streams_cache
        totals: Dict[Tuple[str, str], Tuple[int, int]] = {}
        for pattern, count in self.tile_program():
            for step in pattern:
                for tr in step.gets + step.puts:
                    key = (tr.tensor, tr.direction)
                    bytes_so_far, weighted_block = totals.get(key, (0, 0))
                    totals[key] = (
                        bytes_so_far + count * tr.nbytes,
                        weighted_block + count * tr.nbytes * tr.block_bytes,
                    )
        streams = []
        for (tensor, direction), (nbytes, weighted) in sorted(totals.items()):
            if nbytes == 0:
                continue
            block = max(1, int(round(weighted / nbytes)))
            streams.append(
                DMAStream(
                    name=f"{tensor}.{direction}",
                    bytes_moved=float(nbytes),
                    block_bytes=block,
                    direction=direction,
                )
            )
        if not streams:
            raise PlanError("plan schedule produced no DMA traffic")
        self._streams_cache = streams
        return streams

    def total_dma_bytes(self) -> int:
        return int(sum(s.bytes_moved for s in self.dma_streams()))

    def estimate(self, model: Optional[PerformanceModel] = None) -> PerformanceEstimate:
        """Model this plan with the three-level estimator of Fig. 2."""
        from repro.perf.dma_model import blended_mbw
        from repro.perf.equations import rbw_ldm_reg_gemm_simd

        model = model or PerformanceModel(self.spec)
        return PerformanceEstimate(
            plan=self.name,
            peak_flops=self.spec.peak_flops_per_cg,
            execution_efficiency=model._ee(self.params.ni),
            rbw_mem=self.rbw_mem(),
            mbw_mem=blended_mbw(self.dma_streams()),
            rbw_reg=rbw_ldm_reg_gemm_simd(
                self.register_blocking.rb_b,
                self.register_blocking.rb_no,
                peak_flops=self.spec.peak_flops_per_cpe,
            ),
            mbw_reg=self.spec.ldm_bandwidth,
        )

    def describe(self) -> str:
        return f"{self.name} for {self.params.describe()}"


class ImageSizeAwarePlan(ConvPlan):
    """Algorithm 1: block on batch (bB) and output columns (bCo).

    Loop order: batch blocks -> output rows -> column blocks -> (kr, kc).
    Input and filter tiles stream per (kr, kc) unless promoted; the output
    tile accumulates in LDM and is stored once per column block.
    """

    name = "image-size-aware"

    def __init__(
        self,
        params: ConvParams,
        blocking: Optional[ImageBlocking] = None,
        register_blocking: RegisterBlocking = PAPER_REGISTER_BLOCKING,
        spec: SW26010Spec = DEFAULT_SPEC,
    ):
        super().__init__(params, register_blocking, spec)
        self.blocking = blocking or choose_image_blocking(params, spec)
        self.validate()

    def ldm_regions(self) -> List[Tuple[str, int]]:
        return image_plan_ldm_bytes(self.params, self.blocking, self.spec)

    def rbw_mem(self) -> float:
        if self.blocking.promote_input:
            return rbw_mem_ldm_image_plan_promoted(
                self.blocking.b_co,
                self.blocking.b_b,
                self.params.no,
                self.params.kc,
                peak_flops=self.spec.peak_flops_per_cg,
            )
        return rbw_mem_ldm_image_plan(
            self.blocking.b_co,
            self.blocking.b_b,
            self.params.no,
            peak_flops=self.spec.peak_flops_per_cg,
        )

    def _tile_streams(self, co_len: int) -> Tuple[int, int, int, int, int]:
        """Per-tile stream shape of a ``co_len``-column block.

        Returns ``(in_cols, in_block, in_count, flt_kc, flt_count)``: each
        input transfer moves ``in_cols`` columns in ``in_block``-byte runs,
        ``in_count`` times per ni-block; each filter transfer moves
        ``flt_kc`` filter columns, ``flt_count`` times per ni-block.
        """
        p, blk = self.params, self.blocking
        if blk.promote_input:
            # One halo-widened input row per kr covers all kc.
            in_cols = co_len + p.kc - 1
            in_count = p.kr
        else:
            in_cols = co_len
            in_count = p.kr * p.kc
        if blk.promote_filter:
            flt_kc, flt_count = p.kc, p.kr
        else:
            flt_kc, flt_count = 1, p.kr * p.kc
        return in_cols, image_plan_block_bytes(in_cols), in_count, flt_kc, flt_count

    def _output_put(self, bb_len: int, co_len: int) -> TileTransfer:
        p = self.params
        return TileTransfer(
            "output",
            bb_len * p.no * co_len * DS,
            image_plan_block_bytes(co_len),
            "put",
        )

    def tile_schedule(self) -> Iterator[TileStep]:
        p, blk = self.params, self.blocking
        flt_block = filter_block_bytes(p.no)
        b_ni = blk.ni_block(p.ni)
        ni_blocks = [(ni0, min(b_ni, p.ni - ni0)) for ni0 in range(0, p.ni, b_ni)]
        for bb in range(0, p.b, blk.b_b):
            bb_len = min(blk.b_b, p.b - bb)
            for ro in range(p.ro):
                for co in range(0, p.co, blk.b_co):
                    co_len = min(blk.b_co, p.co - co)
                    in_cols, in_block, in_count, flt_kc, flt_count = (
                        self._tile_streams(co_len)
                    )
                    step = TileStep()
                    for ni0, ni_len in ni_blocks:
                        in_bytes = ni_len * bb_len * in_cols * DS
                        for _ in range(in_count):
                            step.gets.append(
                                TileTransfer("input", in_bytes, in_block, "get")
                            )
                        flt_bytes = ni_len * p.no * flt_kc * DS
                        for _ in range(flt_count):
                            step.gets.append(
                                TileTransfer("filter", flt_bytes, flt_block, "get")
                            )
                        for kr in range(p.kr):
                            for kc in range(p.kc):
                                step.computes.append(
                                    ComputeSpec(
                                        bb=bb,
                                        bb_len=bb_len,
                                        ro=ro,
                                        co=co,
                                        co_len=co_len,
                                        kr=kr,
                                        kc=kc,
                                        ni0=ni0,
                                        ni_len=ni_len,
                                    )
                                )
                    step.flops = 2 * bb_len * co_len * p.no * p.ni * p.kr * p.kc
                    step.puts.append(self._output_put(bb_len, co_len))
                    yield step

    def tile_program(self) -> TileProgram:
        """One row of column-block tiles per batch block, repeated ``Ro`` times.

        Distinct tiles differ only in ``(bb_len, co_len)``: at most two
        batch-block and two column-block lengths.  The full batch blocks
        share one row, so they are one run; the edge block is another.
        """
        p, blk = self.params, self.blocking
        flt_block = filter_block_bytes(p.no)
        steps: Dict[Tuple[int, int], TileStep] = {}

        def tile(bb_len: int, co_len: int) -> TileStep:
            step = steps.get((bb_len, co_len))
            if step is None:
                in_cols, in_block, in_count, flt_kc, flt_count = (
                    self._tile_streams(co_len)
                )
                step = steps[(bb_len, co_len)] = TileStep(
                    gets=[
                        TileTransfer(
                            "input",
                            p.ni * bb_len * in_cols * DS * in_count,
                            in_block,
                            "get",
                        ),
                        TileTransfer(
                            "filter",
                            p.ni * p.no * flt_kc * DS * flt_count,
                            flt_block,
                            "get",
                        ),
                    ],
                    puts=[self._output_put(bb_len, co_len)],
                    flops=2 * bb_len * co_len * p.no * p.ni * p.kr * p.kc,
                )
            return step

        co_lens = [min(blk.b_co, p.co - co) for co in range(0, p.co, blk.b_co)]
        return tuple(
            (tuple(tile(bb_len, co_len) for co_len in co_lens), p.ro * count)
            for bb_len, count in _blocks(p.b, blk.b_b)
        )


class BatchSizeAwarePlan(ConvPlan):
    """Algorithm 2: keep the whole batch, block output columns.

    Loop order: column blocks -> output rows -> kr -> input columns.  Each
    input column slab (Ni x B) is loaded once and contributes to every
    output column ``cCo = cCi - kc`` inside the block; filters stream per
    (kr) when promoted, per (kr, kc) otherwise.
    """

    name = "batch-size-aware"

    def __init__(
        self,
        params: ConvParams,
        blocking: Optional[BatchBlocking] = None,
        register_blocking: RegisterBlocking = PAPER_REGISTER_BLOCKING,
        spec: SW26010Spec = DEFAULT_SPEC,
    ):
        super().__init__(params, register_blocking, spec)
        self.blocking = blocking or choose_batch_blocking(params, spec)
        self.validate()

    def ldm_regions(self) -> List[Tuple[str, int]]:
        return batch_plan_ldm_bytes(self.params, self.blocking, self.spec)

    def rbw_mem(self) -> float:
        if self.blocking.promote_filter:
            return rbw_mem_ldm_batch_plan_promoted(
                self.params.kc,
                self.params.no,
                self.params.b,
                self.blocking.b_co,
                peak_flops=self.spec.peak_flops_per_cg,
            )
        return rbw_mem_ldm_batch_plan(
            self.params.kc,
            self.params.no,
            self.params.b,
            peak_flops=self.spec.peak_flops_per_cg,
        )

    def _filter_head(self) -> TileStep:
        """The promoted filter load that opens each (row, kr) pass."""
        p = self.params
        return TileStep(
            gets=[
                TileTransfer(
                    "filter", p.ni * p.no * p.kc * DS, filter_block_bytes(p.no), "get"
                )
            ]
        )

    def _output_tail(self, co_len: int) -> TileStep:
        """The output store that closes each (column block, row)."""
        p = self.params
        return TileStep(
            puts=[
                TileTransfer(
                    "output",
                    co_len * p.b * p.no * DS,
                    batch_plan_block_bytes(p.b),
                    "put",
                )
            ]
        )

    def tile_schedule(self) -> Iterator[TileStep]:
        p, blk = self.params, self.blocking
        in_block = batch_plan_block_bytes(p.b)
        flt_block = filter_block_bytes(p.no)
        b_ni = blk.ni_block(p.ni)
        ni_blocks = [(ni0, min(b_ni, p.ni - ni0)) for ni0 in range(0, p.ni, b_ni)]
        for co_start in range(0, p.co, blk.b_co):
            co_len = min(blk.b_co, p.co - co_start)
            # Every block sees co_len + Kc - 1 input columns (Ci = Co+Kc-1
            # guarantees no clipping).
            n_columns = co_len + p.kc - 1
            for ro in range(p.ro):
                for kr in range(p.kr):
                    if blk.promote_filter:
                        yield self._filter_head()
                    for ci in range(co_start, co_start + n_columns):
                        step = TileStep()
                        for ni0, ni_len in ni_blocks:
                            step.gets.append(
                                TileTransfer(
                                    "input", ni_len * p.b * DS, in_block, "get"
                                )
                            )
                            for kc in range(p.kc):
                                co = ci - kc
                                if co_start <= co < co_start + co_len:
                                    if not blk.promote_filter:
                                        step.gets.append(
                                            TileTransfer(
                                                "filter",
                                                ni_len * p.no * DS,
                                                flt_block,
                                                "get",
                                            )
                                        )
                                    step.computes.append(
                                        ComputeSpec(
                                            bb=0,
                                            bb_len=p.b,
                                            ro=ro,
                                            co=co,
                                            co_len=1,
                                            kr=kr,
                                            kc=kc,
                                            ni0=ni0,
                                            ni_len=ni_len,
                                        )
                                    )
                                    step.flops += 2 * p.b * p.no * ni_len
                        yield step
                # Output stored once per (column block, row).
                yield self._output_tail(co_len)

    def tile_program(self) -> TileProgram:
        """Per column block, ``(filter head, column step) x Kr + (output
        tail)``, repeated ``Ro`` times.

        Each kr pass merges its ``co_len + Kc - 1`` input columns and
        ``co_len * Kc`` (ci, kc) updates into one step.  Distinct tiles:
        the shared filter head (promoted plans only) plus one step and one
        tail per column-block length (at most two).  The full column
        blocks share one pattern, so they are one run; the edge block is
        another.
        """
        p, blk = self.params, self.blocking
        head = (self._filter_head(),) if blk.promote_filter else ()

        def pattern(co_len: int) -> Tuple[TileStep, ...]:
            n_columns = co_len + p.kc - 1
            n_updates = co_len * p.kc
            gets = [
                TileTransfer(
                    "input",
                    p.ni * p.b * n_columns * DS,
                    batch_plan_block_bytes(p.b),
                    "get",
                )
            ]
            if not blk.promote_filter:
                gets.append(
                    TileTransfer(
                        "filter",
                        p.ni * p.no * n_updates * DS,
                        filter_block_bytes(p.no),
                        "get",
                    )
                )
            step = TileStep(gets=gets, flops=2 * p.b * p.no * p.ni * n_updates)
            return (head + (step,)) * p.kr + (self._output_tail(co_len),)

        return tuple(
            (pattern(co_len), p.ro * count) for co_len, count in _blocks(p.co, blk.b_co)
        )


def make_plan(
    kind: str,
    params: ConvParams,
    spec: SW26010Spec = DEFAULT_SPEC,
    **kwargs,
) -> ConvPlan:
    """Construct a plan by family name ("image" or "batch")."""
    if kind in ("image", "image-size-aware"):
        return ImageSizeAwarePlan(params, spec=spec, **kwargs)
    if kind in ("batch", "batch-size-aware"):
        return BatchSizeAwarePlan(params, spec=spec, **kwargs)
    raise PlanError(f"unknown plan kind {kind!r}")
