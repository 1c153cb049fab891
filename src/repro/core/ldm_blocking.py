"""LDM blocking: tile sizing against the 64 KB scratchpad (Section IV-A).

The blocking chooser turns the paper's three design insights into a search:

1. block first the dimension whose blocking most reduces the MEM->LDM RBW
   (for Algorithm 1 that is the ``bCo * bB`` product; for Algorithm 2 the
   batch is kept whole);
2. keep the leading DMA dimension large ("larger than 256B and aligned in
   128B") so the Table II curve is climbed;
3. push DMA operations to outer loops (the *promotion* flags) whenever the
   bigger tiles still fit.

Each family's blockings are one grid of int64 rows
``(b_ni, b_b, b_co, promote_input, promote_filter)`` with an LDM-fit mask
that sums the per-CPE regions (double buffers for the streamed operands)
the way the execution engine's :class:`~repro.hw.ldm.LDMAllocator`
allocates them.  The grids are built once per shape and shared: the
choosers select their row from them, and the autotuner's search space
(:func:`~repro.tune.space.search_space`) is their fitting rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.common.errors import LDMOverflowError, PlanError
from repro.hw.ldm import LDMAllocator, _round_up
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.core.params import ConvParams

DS = 8


@dataclass(frozen=True)
class ImageBlocking:
    """Algorithm 1 blocking: ``bB`` on batch, ``bCo`` on output columns.

    ``b_ni`` blocks the input-channel reduction when the LDM cannot hold
    full-Ni tiles ("if LDM space is not enough for large Ni ... we still
    need to apply loop blocking on these dimensions", Section IV-A);
    ``None`` keeps the reduction whole.
    """

    b_b: int
    b_co: int
    promote_input: bool = False
    promote_filter: bool = False
    b_ni: Optional[int] = None

    def __post_init__(self) -> None:
        if self.b_b < 1 or self.b_co < 1:
            raise ValueError("blocking sizes must be positive")
        if self.b_ni is not None and self.b_ni < 1:
            raise ValueError("b_ni must be positive when given")

    def ni_block(self, ni: int) -> int:
        return min(ni, self.b_ni) if self.b_ni is not None else ni


@dataclass(frozen=True)
class BatchBlocking:
    """Algorithm 2 blocking: whole batch, ``bCo`` on output columns.

    ``b_ni`` blocks the input-channel reduction (see ImageBlocking).
    """

    b_co: int
    promote_filter: bool = False
    b_ni: Optional[int] = None

    def __post_init__(self) -> None:
        if self.b_co < 1:
            raise ValueError("bCo must be positive")
        if self.b_ni is not None and self.b_ni < 1:
            raise ValueError("b_ni must be positive when given")

    def ni_block(self, ni: int) -> int:
        return min(ni, self.b_ni) if self.b_ni is not None else ni


def _per_cpe(elements: int, spec: SW26010Spec) -> int:
    """Bytes per CPE for a tile spread over the whole mesh."""
    return -(-elements // spec.cpes_per_group) * DS


def image_plan_ldm_bytes(
    params: ConvParams, blocking: ImageBlocking, spec: SW26010Spec = DEFAULT_SPEC
) -> List[Tuple[str, int]]:
    """Per-CPE LDM regions (name, bytes) the image-size-aware plan needs.

    Input and filter tiles stream (double buffered); the output tile is
    accumulated in place.
    """
    p, blk = params, blocking
    ni = blk.ni_block(p.ni)
    in_cols = (blk.b_co + p.kc - 1) if blk.promote_input else blk.b_co
    input_tile = _per_cpe(ni * blk.b_b * in_cols, spec)
    filter_elems = ni * p.no * (p.kc if blk.promote_filter else 1)
    filter_tile = _per_cpe(filter_elems, spec)
    output_tile = _per_cpe(blk.b_b * p.no * blk.b_co, spec)
    return [
        ("input.ping", input_tile),
        ("input.pong", input_tile),
        ("filter.ping", filter_tile),
        ("filter.pong", filter_tile),
        ("output", output_tile),
    ]


def batch_plan_ldm_bytes(
    params: ConvParams, blocking: BatchBlocking, spec: SW26010Spec = DEFAULT_SPEC
) -> List[Tuple[str, int]]:
    """Per-CPE LDM regions the batch-size-aware plan needs.

    One input column slab (Ni x B) streams at a time; the output block is
    ``bCo`` columns of B x No accumulated across the kr loop.
    """
    p, blk = params, blocking
    ni = blk.ni_block(p.ni)
    input_tile = _per_cpe(ni * p.b, spec)
    filter_elems = ni * p.no * (p.kc if blk.promote_filter else 1)
    filter_tile = _per_cpe(filter_elems, spec)
    output_tile = _per_cpe(blk.b_co * p.b * p.no, spec)
    return [
        ("input.ping", input_tile),
        ("input.pong", input_tile),
        ("filter.ping", filter_tile),
        ("filter.pong", filter_tile),
        ("output", output_tile),
    ]


def fits_in_ldm(regions: List[Tuple[str, int]], spec: SW26010Spec = DEFAULT_SPEC) -> bool:
    """Whether a set of per-CPE regions fits the 64 KB LDM."""
    allocator = LDMAllocator(capacity=spec.ldm_bytes)
    return allocator.would_fit(*(nbytes for _, nbytes in regions))


def assert_fits_in_ldm(
    regions: List[Tuple[str, int]], spec: SW26010Spec = DEFAULT_SPEC
) -> None:
    if not fits_in_ldm(regions, spec):
        total = sum(n for _, n in regions)
        detail = ", ".join(f"{name}={nbytes}B" for name, nbytes in regions)
        raise LDMOverflowError(
            f"plan needs {total} bytes of LDM per CPE "
            f"(limit {spec.ldm_bytes}): {detail}"
        )


def _divisor_candidates(limit: int, step: int) -> Iterator[int]:
    """Doubling candidates up to ``limit``, always including ``limit`` itself
    so problems smaller than one step still get a (full-extent) block."""
    value = step
    emitted_limit = False
    while value <= limit:
        yield value
        emitted_limit = emitted_limit or value == limit
        value *= 2
    if not emitted_limit:
        yield limit


def _grid(*axes: Iterable[Optional[int]]) -> np.ndarray:
    """The cross product of ``axes`` as int64 rows in nested-loop order
    (the last axis fastest); ``None`` becomes 0."""
    mesh = np.meshgrid(
        *[np.array([v or 0 for v in axis], dtype=np.int64) for axis in axes],
        indexing="ij",
    )
    return np.stack([column.ravel() for column in mesh], axis=1)


def _ni_block(b_ni: np.ndarray, ni: int) -> np.ndarray:
    """``ni_block`` of the blockings over a ``b_ni`` column (0 = full)."""
    return np.where(b_ni > 0, np.minimum(ni, b_ni), ni)


def _ldm_fits(
    inputs: np.ndarray, ni: np.ndarray, promote_filter: np.ndarray,
    outputs: np.ndarray, params: ConvParams, spec: SW26010Spec,
) -> np.ndarray:
    """``fits_in_ldm`` of each point's five per-CPE regions (input and
    filter ping/pong, output), each aligned as the allocator aligns it."""
    filters = ni * params.no * np.where(promote_filter, params.kc, 1)
    inp, flt, out = (
        _round_up(_per_cpe(elems, spec), LDMAllocator.ALIGN)
        for elems in (inputs, filters, outputs)
    )
    return 2 * inp + 2 * flt + out <= spec.ldm_bytes


def _read_only(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    for array in arrays:
        array.setflags(write=False)
    return arrays


@lru_cache(maxsize=8)
def _image_grid(params: ConvParams, spec: SW26010Spec) -> Tuple[np.ndarray, np.ndarray]:
    """Every image-size-aware blocking as a row, and whether it fits LDM
    (the regions of ``image_plan_ldm_bytes``).  Cached per shape; the
    arrays are read-only."""
    p = params
    points = _grid(
        _ni_candidates(p.ni),
        _divisor_candidates(min(p.b, 256), 8),
        _divisor_candidates(min(p.co, 128), 4),
        (0, 1),
        (0, 1),
    )
    b_ni, b_b, b_co, promote_input, promote_filter = points.T
    ni = _ni_block(b_ni, p.ni)
    inputs = ni * b_b * (b_co + (p.kc - 1) * promote_input)
    fits = _ldm_fits(inputs, ni, promote_filter, b_b * p.no * b_co, p, spec)
    return _read_only(points, fits)


@lru_cache(maxsize=8)
def _batch_grid(params: ConvParams, spec: SW26010Spec) -> Tuple[np.ndarray, np.ndarray]:
    """Every batch-size-aware blocking as a row (the batch is kept whole),
    and whether it fits LDM (the regions of ``batch_plan_ldm_bytes``).
    Cached per shape; the arrays are read-only."""
    p = params
    points = _grid(
        _ni_candidates(p.ni), (0,), _divisor_candidates(min(p.co, 128), 1), (0,), (0, 1)
    )
    b_ni, _, b_co, _, promote_filter = points.T
    ni = _ni_block(b_ni, p.ni)
    fits = _ldm_fits(ni * p.b, ni, promote_filter, b_co * p.b * p.no, p, spec)
    return _read_only(points, fits)


def _chosen_row(points: np.ndarray, fits: np.ndarray) -> Optional[List[int]]:
    """The choosers' pick of a grid: of the fitting rows without input
    promotion, those of the first ``b_ni`` (in :func:`_ni_candidates`
    order) that has any, and of them the max of ``(b_b * b_co, b_co,
    promote_filter)``; None when no row fits.

    Filter promotion moves the same bytes in longer runs, so a cell takes
    it whenever it fits.  Input promotion (reading the kc-halo once)
    *reduces* traffic below what Eq. 1 models; it is an explicit opt-in
    (see the promotion ablation bench), not a default, so plans stay
    comparable with the paper's model.
    """
    b_ni, b_b, b_co, promote_input, promote_filter = points.T
    rows = np.flatnonzero(fits & (promote_input == 0))
    if not len(rows):
        return None
    rows = rows[b_ni[rows] == b_ni[rows[0]]]
    best = np.lexsort((promote_filter[rows], b_co[rows], (b_b * b_co)[rows]))[-1]
    return points[rows[best]].tolist()


def choose_image_blocking(
    params: ConvParams, spec: SW26010Spec = DEFAULT_SPEC
) -> ImageBlocking:
    """Largest-RBW-reduction (bB, bCo) that fits LDM, with DMA promotion.

    Candidates double from the mesh size upward (keeping tiles dividing the
    problem is the engine's job via edge tiles; the chooser optimizes the
    steady-state tile).  Among fitting candidates, maximize ``bB * bCo``
    (minimizing Eq. 1's first term), tie-breaking toward larger ``bCo``
    (longer DMA runs in the (4,C,R,N,B/4) layout); see :func:`_chosen_row`.
    """
    row = _chosen_row(*_image_grid(params, spec))
    if row is None:
        raise PlanError(
            f"no image-size-aware blocking fits LDM for {params.describe()}"
        )
    b_ni, b_b, b_co, _, promote_filter = row
    return ImageBlocking(b_b, b_co, False, bool(promote_filter), b_ni or None)


def choose_batch_blocking(
    params: ConvParams, spec: SW26010Spec = DEFAULT_SPEC
) -> BatchBlocking:
    """Largest output-column block that fits LDM for Algorithm 2."""
    row = _chosen_row(*_batch_grid(params, spec))
    if row is None:
        raise PlanError(
            f"no batch-size-aware blocking fits LDM for {params.describe()} "
            f"(batch {params.b} too large to keep whole)"
        )
    b_ni, _, b_co, _, promote_filter = row
    return BatchBlocking(b_co, bool(promote_filter), b_ni or None)


def _ni_candidates(ni: int) -> Iterator[Optional[int]]:
    """Full Ni first, then halvings down to one 8-deep kernel iteration."""
    yield None
    value = ni // 2
    while value >= 8:
        yield value
        value //= 2
