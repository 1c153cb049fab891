"""Enumeration of the legal blocking/schedule space for one conv shape.

A :class:`Candidate` is one point of the autotuner's search space: a
loop-schedule family (Algorithm 1 or 2), its LDM blocking, and a
register-blocking shape for the inner GEMM kernel.  The enumeration walks:

* ``bB`` (batch block) and ``bCo`` (output-column block) doubling sweeps for
  the image-size-aware family, ``bCo`` alone for the batch-size-aware family
  (the batch is kept whole there by construction);
* ``bNi`` (input-channel reduction block): the full reduction plus halvings
  down to one 8-deep kernel iteration;
* both DMA-promotion flags — notably ``promote_input``, which the heuristic
  planner never picks (it reads the kc-wide input halo once per ``kr``
  instead of once per ``(kr, kc)``, cutting input traffic by ~Kc) but which
  the measured search is free to exploit;
* a small set of register-feasible ``(rbB, rbNo)`` shapes around the paper's
  (16, 4).

The points are int64 columns (:class:`SearchSpace`) in that nested-loop
order, the register shape varying fastest.  Every point is
**LDM-capacity-feasible**: one mask sums its per-CPE regions the way the
:class:`~repro.hw.ldm.LDMAllocator` of the execution engine allocates them.
The blockings and the mask are the per-shape grids the heuristic choosers
of :mod:`repro.core.ldm_blocking` select from, built once for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.algorithms import (
    GemmBlocking,
    LoweredConvPlan,
    algorithm_legal,
    enumerate_gemm_blockings,
    make_lowered_plan,
    resolve_algorithms,
)
from repro.core.ldm_blocking import (
    BatchBlocking,
    ImageBlocking,
    _batch_grid,
    _image_grid,
)
from repro.core.params import ConvParams
from repro.core.plans import ConvPlan, make_plan
from repro.core.register_blocking import (
    PAPER_REGISTER_BLOCKING,
    RegisterBlocking,
)
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC

#: Register-blocking shapes the search considers by default: the paper's
#: (16, 4) plus the feasible corners of the (rbB, rbNo) plane (all use
#: <= 32 registers; see RegisterBlocking.registers_needed).
DEFAULT_REGISTER_BLOCKINGS = (
    RegisterBlocking(rb_b=16, rb_no=4),  # the paper's choice
    RegisterBlocking(rb_b=8, rb_no=8),
    RegisterBlocking(rb_b=12, rb_no=4),
    RegisterBlocking(rb_b=8, rb_no=4),
    RegisterBlocking(rb_b=16, rb_no=2),
)


@dataclass(frozen=True)
class Candidate:
    """One (algorithm, family, LDM blocking, register blocking) search point.

    ``algorithm`` defaults to "direct" (the paper's conv->mesh mapping),
    where ``family`` names the loop schedule (Algorithm 1 or 2).  For the
    lowered algorithms of the zoo, ``family`` equals the algorithm name and
    ``blocking`` is the mesh GEMM's :class:`GemmBlocking`.
    """

    family: str  # "image-size-aware" | "batch-size-aware" | "im2col" | "winograd"
    blocking: Union[ImageBlocking, BatchBlocking, GemmBlocking]
    register_blocking: RegisterBlocking = PAPER_REGISTER_BLOCKING
    algorithm: str = "direct"

    def build(
        self, params: ConvParams, spec: SW26010Spec = DEFAULT_SPEC
    ) -> Union[ConvPlan, LoweredConvPlan]:
        """Materialize the candidate as an executable plan (validates LDM)."""
        if self.algorithm != "direct":
            if not isinstance(self.blocking, GemmBlocking):
                raise ValueError(
                    f"{self.algorithm} candidates need a GemmBlocking, "
                    f"got {type(self.blocking).__name__}"
                )
            return make_lowered_plan(
                self.algorithm,
                params,
                spec=spec,
                blocking=self.blocking,
                register_blocking=self.register_blocking,
            )
        kind = "image" if self.family == "image-size-aware" else "batch"
        return make_plan(
            kind,
            params,
            spec=spec,
            blocking=self.blocking,
            register_blocking=self.register_blocking,
        )

    def describe(self) -> str:
        blk = self.blocking
        rb = self.register_blocking
        if isinstance(blk, GemmBlocking):
            body = f"bM={blk.b_m} bN={blk.b_n} bK={blk.b_k}"
        elif isinstance(blk, ImageBlocking):
            body = (
                f"bB={blk.b_b} bCo={blk.b_co} bNi={blk.b_ni or 'full'}"
                f"{' +in' if blk.promote_input else ''}"
                f"{' +flt' if blk.promote_filter else ''}"
            )
        else:
            body = (
                f"bCo={blk.b_co} bNi={blk.b_ni or 'full'}"
                f"{' +flt' if blk.promote_filter else ''}"
            )
        return f"{self.family}({body}) rb=({rb.rb_b},{rb.rb_no})"


#: The two loop-schedule families of the search space (Algorithms 1 and 2).
FAMILIES = ("image-size-aware", "batch-size-aware")


@dataclass(frozen=True, eq=False)
class SearchSpace:
    """One shape's search space: the direct points as one int64 row
    ``(b_ni, b_b, b_co, promote_input, promote_filter)`` per blocking (the
    ``image`` image-size-aware rows first; ``b_ni`` 0 is the whole
    reduction) times ``shapes``, then the lowered candidates.  Direct point
    ``i`` is blocking ``i // len(shapes)`` at ``shapes[i % len(shapes)]``.
    """

    params: ConvParams
    spec: SW26010Spec
    image: int
    blockings: np.ndarray
    shapes: Tuple[RegisterBlocking, ...]
    lowered: Tuple[Candidate, ...] = ()

    @property
    def direct(self) -> int:
        """Number of direct points (they come first)."""
        return len(self.blockings) * len(self.shapes)

    def __len__(self) -> int:
        return self.direct + len(self.lowered)

    def candidate(self, index: int) -> Candidate:
        """The search point at ``index``, as a :class:`Candidate`."""
        if index >= self.direct:
            return self.lowered[index - self.direct]
        row, shape = divmod(index, len(self.shapes))
        b_ni, b_b, b_co, promote_input, promote_filter = self.blockings[row].tolist()
        blocking: Union[ImageBlocking, BatchBlocking]
        if row < self.image:
            blocking = ImageBlocking(
                b_b, b_co, bool(promote_input), bool(promote_filter), b_ni or None
            )
        else:
            blocking = BatchBlocking(b_co, bool(promote_filter), b_ni or None)
        return Candidate(FAMILIES[row >= self.image], blocking, self.shapes[shape])

    @classmethod
    def of(
        cls, candidate: Candidate, params: ConvParams, spec: SW26010Spec
    ) -> "SearchSpace":
        """The one-point space of a direct candidate."""
        blk = candidate.blocking
        image = isinstance(blk, ImageBlocking)
        row = [blk.b_ni or 0, blk.b_b if image else 0, blk.b_co,
               image and blk.promote_input, blk.promote_filter]
        blockings = np.array([row], dtype=np.int64)
        return cls(params, spec, int(image), blockings, (candidate.register_blocking,))


def search_space(
    params: ConvParams,
    spec: SW26010Spec = DEFAULT_SPEC,
    register_blockings: Optional[Sequence[RegisterBlocking]] = None,
    families: Optional[Sequence[str]] = None,
    algorithms: Union[None, str, Sequence[str]] = None,
) -> SearchSpace:
    """All LDM- and register-feasible points for one conv shape.

    The cross product (algorithms x families x blockings x register shapes)
    is pruned to feasibility only — ranking is the tuner's job (the
    analytic model scores the direct columns in closed form, one NumPy
    pass per term).

    ``families`` restricts the search to a subset of :data:`FAMILIES` —
    e.g. the serving pool tunes within ``("image-size-aware",)`` only,
    because that family's tile count is batch-invariant and therefore
    amortizes under dynamic batching, while batch-size-aware schedules only
    pay off at the training-scale batches they were designed for.

    ``algorithms`` opts into the zoo: ``None`` searches the direct
    algorithm only (the status quo — lowered paths give up the guarded
    ladder, fused epilogues and bit-identity with the direct engine);
    ``"all"`` or an explicit subset adds the lowered families, with
    illegal (algorithm, shape) combinations pruned here — a Winograd
    candidate for a 5x5 or strided shape is never enumerated.
    """
    algos = resolve_algorithms(algorithms)
    if families is None:
        families = FAMILIES
    else:
        unknown = [f for f in families if f not in FAMILIES]
        if unknown:
            raise ValueError(
                f"unknown plan families {unknown}; expected a subset of {FAMILIES}"
            )
        if not families:
            raise ValueError("families must name at least one plan family")
    if register_blockings is None:
        register_blockings = DEFAULT_REGISTER_BLOCKINGS
    shapes = tuple(
        dict.fromkeys(rb for rb in register_blockings if rb.is_feasible(spec))
    )
    if not shapes:
        raise ValueError("no register-feasible blocking shape in the search set")
    image = batch = np.zeros((0, 5), dtype=np.int64)
    if "direct" in algos and FAMILIES[0] in families:
        points, fits = _image_grid(params, spec)
        image = points[fits]
    if "direct" in algos and FAMILIES[1] in families:
        points, fits = _batch_grid(params, spec)
        batch = points[fits]
    # Lowered kernels run the fixed mesh-GEMM inner loop; the paper's
    # register blocking is always feasible, so the search dimension is
    # the GEMM tile shape alone.
    lowered = tuple(
        Candidate(algo, blocking, PAPER_REGISTER_BLOCKING, algorithm=algo)
        for algo in algos
        if algo != "direct" and algorithm_legal(algo, params)
        for blocking in enumerate_gemm_blockings(algo, params, spec)
    )
    blockings = np.concatenate([image, batch])
    return SearchSpace(params, spec, len(image), blockings, shapes, lowered)


def enumerate_candidates(
    params: ConvParams,
    spec: SW26010Spec = DEFAULT_SPEC,
    register_blockings: Optional[Sequence[RegisterBlocking]] = None,
    families: Optional[Sequence[str]] = None,
    algorithms: Union[None, str, Sequence[str]] = None,
) -> List[Candidate]:
    """Every point of :func:`search_space` as a :class:`Candidate`, in order."""
    space = search_space(params, spec, register_blockings, families, algorithms)
    return [space.candidate(i) for i in range(len(space))]
