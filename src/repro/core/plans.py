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
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, TypeVar

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


#: Buffer bytes of one chunk of the mesh backends' walk (see
#: :class:`CompiledWalk`): its accumulator and one gathered operand.  Tile
#: GEMMs are tiny, so per-call overhead dominates unless many tiles share a
#: multiply; 256 KiB puts a few dozen to a few hundred tiles in a chunk
#: while its buffers stay cache-sized, so peak memory does not grow with
#: the layer (a tile over the budget makes a chunk alone).
MESH_STACK_BYTES = 256 * 1024


@dataclass(frozen=True)
class WalkChunk:
    """Whole output tiles of one shape that the walk updates together.

    A tile is the output region one schedule window updates: a batch
    block at one output row and column block, all output channels.
    ``x_base`` and ``out_base`` hold, per tile, the flat offsets of its
    first element (batch ``bb``, channel 0, row ``ro``, column ``co``) in
    the C-order input and output tensors.
    """

    #: ``(bb_len, co_len)`` of every tile of the chunk.
    shape: Tuple[int, int]
    x_base: np.ndarray
    out_base: np.ndarray


@dataclass(frozen=True)
class CompiledWalk:
    """A plan's GEMM updates, operand-major: what the mesh backends run.

    ``operands`` lists the schedule's distinct filter operands ``(kr, kc,
    ni0, ni_len)`` in the one order in which every output element receives
    them; ``chunks`` splits the output into chunks of whole tiles of one
    shape, each within :data:`MESH_STACK_BYTES`.  Per chunk and operand,
    the windows of all the chunk's tiles meet the shared filter slice in
    one multiply whose product is added into the chunk's accumulator, so
    every output element receives the products of tile-by-tile updating,
    in the same order.
    """

    operands: Tuple[Tuple[int, int, int, int], ...]
    chunks: Tuple[WalkChunk, ...]


def _compile_walk(plan: "ConvPlan") -> CompiledWalk:
    """Check the schedule's common operand order and chunk its tiles.

    Raises :class:`PlanError` unless the updates' output regions tile the
    output exactly (every element in one tile) and every tile receives the
    same operands in the same order; the walk is exact only then.
    """
    p = plan.params
    rows = np.array(
        [
            (c.bb, c.ro, c.co, c.bb_len, c.co_len,
             c.kr, c.kc, c.ni0, c.ni_len if c.ni_len >= 0 else p.ni)
            for step in plan.compiled_schedule()
            for c in step.computes
        ],
        dtype=np.intp,
    )
    tiles, first, tile_of = np.unique(
        rows[:, :5], axis=0, return_index=True, return_inverse=True
    )
    keys, op_of = np.unique(rows[:, 5:], axis=0, return_inverse=True)
    tile_of, op_of = tile_of.ravel(), op_of.ravel()
    # Each tile's operands in schedule order, one row per tile.
    received = op_of[np.argsort(tile_of, kind="stable")]
    counts = np.bincount(tile_of)
    if (counts != len(keys)).any() or (
        received.reshape(len(tiles), -1) != received[: len(keys)]
    ).any():
        raise PlanError(
            f"{plan.describe()}: its output tiles do not all receive the "
            "filter operands in one common order"
        )
    cover = np.zeros((p.b, p.ro, p.co), dtype=np.intp)
    for bb, ro, co, bb_len, co_len in tiles.tolist():
        cover[bb : bb + bb_len, ro, co : co + co_len] += 1
    if (cover != 1).any():
        raise PlanError(f"{plan.describe()}: its output tiles overlap or leave gaps")
    operands = tuple(map(tuple, keys[received[: len(keys)]].tolist()))
    ni_max = int(keys[:, 3].max())
    tiles = tiles[np.argsort(first)]
    chunks = []
    for shape in dict.fromkeys(map(tuple, tiles[:, 3:].tolist())):
        group = tiles[(tiles[:, 3:] == shape).all(axis=1)]
        bb_len, co_len = shape
        tile_bytes = (p.no + ni_max) * bb_len * co_len * DS
        per_chunk = max(1, MESH_STACK_BYTES // tile_bytes)
        for part in np.array_split(group, -(-len(group) // per_chunk)):
            bb, ro, co = part[:, :3].T
            chunks.append(
                WalkChunk(
                    shape,
                    (bb * p.ni * p.ri + ro) * p.ci + co,
                    (bb * p.no * p.ro + ro) * p.co + co,
                )
            )
    return CompiledWalk(operands, tuple(chunks))


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
        self._walk: Optional[CompiledWalk] = None

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

    def compiled_walk(self) -> CompiledWalk:
        """The schedule's updates as the mesh backends run them, cached.

        The distinct filter operands in their common order, and the output
        cut into chunks of whole same-shape tiles of up to
        :data:`MESH_STACK_BYTES` of buffers (:class:`CompiledWalk`),
        compiled once; every engine of the plan (the planner hands out one
        plan object per layer) shares it.
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
