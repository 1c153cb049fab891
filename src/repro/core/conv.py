"""The convolution execution engine: functional + timed runs of a plan.

A plan is walked twice, for two concerns (see :mod:`repro.core.plans`):

* **Functional**: each :class:`~repro.core.plans.ComputeSpec` of the full
  tile schedule is executed as a real GEMM update — with NumPy directly
  ("numpy" backend) or through the register-communication mesh schedule
  ("mesh" and "mesh-fast" backends) — so a plan's output is compared
  against :func:`repro.core.reference.conv2d_reference`.  The mesh
  backends run the plan's compiled walk
  (:meth:`~repro.core.plans.ConvPlan.compiled_walk`, built once per plan)
  operand-major: per chunk of whole output tiles (up to
  :data:`~repro.core.plans.MESH_STACK_BYTES` of buffers) and per filter
  operand, in the one order every output element receives them, all the
  chunk's windows go to the mesh in one call with the shared filter
  slice, and the product is added into the chunk's accumulator.  Every
  output element receives its products in schedule order.  This walk
  prices nothing.
* **Timed**: each distinct tile of the plan's run-length tile program is
  priced once — its DMA transfers against the Table II bandwidth curve
  (with the calibrated stride derate), its GEMM against the reordered
  dual-pipeline kernel's measured cycles-per-FMA — and the double
  buffering of Section IV-A overlaps the two on a two-deep pipeline
  timeline, computed for all tiles at once as a prefix sum over the
  per-tile cost columns.

The timed report is memoized process-wide, and both
:meth:`ConvolutionEngine.evaluate` and :meth:`ConvolutionEngine.run`
return it, so an executed layer and a timed layer of one plan report the
same tiles, bytes and seconds.  The timed path never touches tensor data
and builds no per-tile objects, so parameter sweeps over the 100+
configurations of Figs. 7/9 run in milliseconds per configuration.

A walk is priced before it is folded (:class:`PricedWalk`), and the
priced program bounds the folded time from below without folding it
(:func:`pipeline_lower_bound`): the autotuner folds only the candidates
whose bound can still beat the best time it has folded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import CPEFaultError, PlanError, SimulationError
from repro.hw.dma import table_ii_model
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.telemetry import current_telemetry
from repro.perf.dma_model import DMA_STRIDE_EFFICIENCY
from repro.perf.model import _measured_ee
from repro.core.params import ConvParams
from repro.core.plans import ConvPlan, TileStep
from repro.core.register_comm import MeshGemm


@dataclass
class TimingReport:
    """Timing of one plan execution on one core group."""

    seconds: float
    flops: int
    dma_seconds: float
    compute_seconds: float
    bytes_get: int
    bytes_put: int
    #: Tiles of the plan's tile program, each run's pattern counted once per
    #: repeat (a lowered plan adds one for its staging pass).
    tiles: int
    peak_flops: float

    @property
    def gflops(self) -> float:
        """Sustained double-precision Gflop/s."""
        if self.seconds <= 0:
            return 0.0
        return self.flops / self.seconds / 1e9

    @property
    def efficiency(self) -> float:
        """Fraction of the core group's peak."""
        if self.seconds <= 0:
            return 0.0
        return (self.flops / self.seconds) / self.peak_flops

    @property
    def overlap_fraction(self) -> float:
        """How much of the serial DMA+compute time the overlap hid."""
        serial = self.dma_seconds + self.compute_seconds
        if serial <= 0:
            return 0.0
        return max(0.0, (serial - self.seconds) / serial)

    @property
    def effective_dma_bandwidth(self) -> float:
        """Achieved MEM<->LDM bytes/s over the busy DMA time."""
        if self.dma_seconds <= 0:
            return 0.0
        return (self.bytes_get + self.bytes_put) / self.dma_seconds


@dataclass
class _StepCost:
    get_seconds: float
    compute_seconds: float
    put_seconds: float
    flops: int
    bytes_get: int
    bytes_put: int


#: Functional compute backends, slowest-but-deepest first: "mesh" simulates
#: the Fig. 3 bus protocol for every tile GEMM; "mesh-fast" verifies the
#: protocol once per multiply signature and then runs each filter operand
#: over a chunk of tiles on the vectorized fast path (bit-identical results,
#: identical statistics); "numpy" computes the updates directly, tile by
#: tile, without touching the mesh.
BACKENDS = ("numpy", "mesh", "mesh-fast")

#: Memoized timed walks of every engine family (direct and lowered): plan
#: signature + timing knobs -> TimingReport.  Repeated layers (training),
#: repeated strips (chip evaluation) and sweep re-runs hit this instead of
#: re-walking their tile programs.
_TIMING_CACHE: Dict[Tuple, TimingReport] = {}

#: Safety valve so pathological sweeps cannot grow the cache unboundedly.
_TIMING_CACHE_MAX = 4096


def clear_timing_cache() -> None:
    """Drop every memoized timed walk, direct and lowered alike."""
    _TIMING_CACHE.clear()


def _memoized_report(
    key: Tuple, walk: Callable[[], TimingReport]
) -> Tuple[TimingReport, bool]:
    """The memoized report for ``key``, walked on a miss: ``(report, hit)``.

    The report is shared by every caller, so callers hand out copies.
    """
    cached = _TIMING_CACHE.get(key)
    if cached is not None:
        return cached, True
    report = walk()
    if len(_TIMING_CACHE) >= _TIMING_CACHE_MAX:
        _TIMING_CACHE.clear()
    _TIMING_CACHE[key] = report
    return report, False


def _cached_report(key: Tuple) -> Optional[TimingReport]:
    """The memoized report for ``key``, or None; counts nothing."""
    return _TIMING_CACHE.get(key)


def _evaluated(engine, walk: Callable[[], TimingReport]) -> TimingReport:
    """What ``engine.evaluate()`` returns when ``walk`` is its miss path:
    a copy of the memoized report, counted as one evaluation."""
    report, hit = _memoized_report(engine._timing_key(), walk)
    _count_evaluation(engine.telemetry.counters, report, hit)
    return replace(report)


def _count_evaluation(counters, report: TimingReport, cache_hit: bool) -> None:
    """Counter accounting for one ``evaluate()`` call (cached or fresh).

    Counting from the report keeps memoized and fresh evaluations
    indistinguishable to the counters — bytes and flops describe what
    the schedule *does*, not whether Python re-walked it.
    """
    if not counters.enabled:
        return
    counters.add("engine.evaluations")
    counters.add(
        "engine.timing_cache.hits" if cache_hit else "engine.timing_cache.misses"
    )
    counters.add("engine.bytes_get", report.bytes_get)
    counters.add("engine.bytes_put", report.bytes_put)
    counters.add("engine.flops", report.flops)
    counters.add("engine.tiles", report.tiles)
    counters.add("engine.simulated_seconds", report.seconds)


#: Fraction of the DMA/compute overlap that LDM-port contention gives back.
#: DMA descriptors write tiles through the same LDM ports the compute
#: kernel's vector loads use, so overlapped transfers stall the pipelines
#: part of the time.  Calibrated against the measured column of Table III
#: (the paper's own model captures the same effect with its squared
#: bandwidth derating); the double-buffering ablation bench sweeps it.
OVERLAP_CONTENTION = 0.5


def _check_timing_knobs(stride_efficiency: float, overlap_contention: float) -> None:
    """Reject timing knobs outside the ranges the timing model is defined on.

    ``stride_efficiency`` derates the Table II bandwidth and must lie in
    ``(0, 1]`` (the range :func:`~repro.perf.dma_model.blended_mbw`
    enforces); ``overlap_contention`` is the charged-back share of hidden
    time and must lie in ``[0, 1]`` (the range :func:`_pipeline_timeline`
    enforces).  NaN fails both.  Engines call this when they are built, so
    a bad knob never reaches a timed walk.
    """
    if not 0.0 < stride_efficiency <= 1.0:
        raise ValueError(
            f"stride_efficiency must be in (0, 1], got {stride_efficiency}"
        )
    if not 0.0 <= overlap_contention <= 1.0:
        raise ValueError(
            f"overlap_contention must be in [0, 1], got {overlap_contention}"
        )


#: ``(pattern, repeat)`` runs of step costs, as a tile program runs steps.
CostProgram = Sequence[Tuple[Tuple[_StepCost, ...], int]]


def _windows(
    program: CostProgram, max_tiles: Optional[int] = None
) -> Tuple[np.ndarray, ...]:
    """The double-buffered schedule of the program's first ``max_tiles``
    tiles: ``(get_start, get_end, comp_start, comp_end, put_start,
    put_end)`` arrays, one entry per tile.

    Gets and puts run on separate descriptor queues (every CPE issues its
    own DMA requests), so a store-back never blocks the next tile's
    prefetch; a tile's load waits for the ping/pong buffer to free (the
    compute of two tiles earlier).  Zero-length puts are pinned to the
    tile's compute end (there is nothing to schedule).  Per tile ``i``::

        get_start[i]  = max(comp_end[i-2], get_end[i-1])
        comp_start[i] = max(comp_end[i-1], get_end[i])
        put_start[i]  = max(comp_end[i], put_end[previous put])

    The per-tile costs are gathered from a table with a row per pattern
    step, and the schedule is computed without a per-tile loop, bit for
    bit: ``get_start[i]`` compares the same two floats as
    ``comp_start[i-1]``, so it *is* ``comp_start[i-1]``; round-to-nearest
    addition is monotone, so ``max(s + comp[i-1], s + get[i]) == s +
    max(comp[i-1], get[i])`` for ``s = comp_start[i-1]``, and
    ``comp_start`` is the prefix sum of ``get[0]`` and those maxima.
    ``cumsum`` adds left to right, as the recurrence does (``np.sum``,
    ``math.fsum`` and Python 3.12's ``sum`` do not).  Every other window
    is one elementwise add.  Puts are taken to start at their compute end;
    where one would still queue behind the previous put, the put queue
    alone is replayed tile by tile.

    The single source of truth for the schedule's timing: the timed
    evaluation folds it (:func:`_pipeline_timeline`), and the Gantt tracer
    and the telemetry span export read it through
    :func:`pipeline_intervals`, so the views of a schedule can never drift
    apart.
    """
    table: List[Tuple[float, float, float]] = []
    runs = [np.zeros(0, dtype=np.intp)]  # each tile's table row, run by run
    for pattern, count in program:
        rows = np.empty((count, len(pattern)), dtype=np.intp)
        rows[...] = range(len(table), len(table) + len(pattern))
        runs.append(rows.ravel())
        table += [(c.get_seconds, c.compute_seconds, c.put_seconds) for c in pattern]
    index = np.concatenate(runs)[:max_tiles]
    costs = np.array(table, dtype=float).reshape(-1, 3)
    get, comp, put = costs.take(index, axis=0).T
    # starts[i] = get_start[i]; starts[i + 1] = comp_start[i].
    starts = np.zeros(len(index) + 1)
    starts[1:2] = get[:1]
    np.maximum(comp[:-1], get[1:], out=starts[2:])
    starts.cumsum(out=starts)
    get_start, comp_start = starts[:-1], starts[1:]
    comp_end = comp_start + comp
    put_start, put_end = comp_end, comp_end + put
    puts = (put > 0).nonzero()[0]
    if (comp_end[puts[1:]] < put_end[puts[:-1]]).any():
        put_start = comp_end.copy()
        free = 0.0
        for i in puts.tolist():
            put_start[i] = free = max(free, comp_end[i])
            put_end[i] = free = free + put[i]
    return get_start, get_start + get, comp_start, comp_end, put_start, put_end


@dataclass(frozen=True)
class TileInterval:
    """Scheduled (get, compute, put) intervals of one tile, in seconds.

    The readable record of one tile's :func:`_windows` entries, tagged with
    the tile's index — what the Gantt tracer (:mod:`repro.perf.trace`) and
    the telemetry span export consume.  The timed evaluation folds the
    bare windows and never builds these.
    """

    index: int
    get_start: float
    get_end: float
    compute_start: float
    compute_end: float
    put_start: float
    put_end: float

    @property
    def get_seconds(self) -> float:
        return self.get_end - self.get_start

    @property
    def compute_seconds(self) -> float:
        return self.compute_end - self.compute_start

    @property
    def put_seconds(self) -> float:
        return self.put_end - self.put_start


def pipeline_intervals(
    program: CostProgram, max_tiles: Optional[int] = None
) -> List[TileInterval]:
    """The double-buffered schedule of the first ``max_tiles`` tiles.

    Wraps each tile's :func:`_windows` entries in a :class:`TileInterval`.
    """
    windows = zip(*(w.tolist() for w in _windows(program, max_tiles)))
    return [TileInterval(index, *window) for index, window in enumerate(windows)]


def _pipeline_timeline(
    program: CostProgram, contention: float = OVERLAP_CONTENTION
) -> Tuple[float, float, float]:
    """Double-buffered timeline: returns (total, dma_busy, compute_busy).

    Folds :func:`_windows` down to totals, each busy time a left-to-right
    sum of its per-tile windows.  The single memory interface is enforced
    as a throughput bound: the whole layer can finish no faster than the
    serial sum of all transfer times.
    """
    if not 0.0 <= contention <= 1.0:
        raise ValueError(f"contention must be in [0, 1], got {contention}")
    get_start, get_end, comp_start, comp_end, put_start, put_end = _windows(program)
    if not len(get_end):
        return 0.0, 0.0, 0.0
    end_get, end_comp, end_put = get_end[-1], comp_end[-1], put_end.max()
    dma_busy = ((get_end - get_start) + (put_end - put_start)).cumsum()[-1]
    comp_busy = (comp_end - comp_start).cumsum()[-1]
    # Shared memory interface: gets and puts cannot truly run concurrently
    # at full bandwidth, so the interface's serial busy time lower-bounds
    # the layer.
    total = max(end_get, end_put, end_comp, dma_busy)
    # LDM-port contention: a fraction of the overlapped time is not actually
    # hidden because DMA writes and kernel loads share the LDM ports.
    hidden = max(0.0, dma_busy + comp_busy - total)
    total += contention * hidden
    return float(total), float(dma_busy), float(comp_busy)


def _fold_program(
    program: CostProgram, contention: float, peak_flops: float
) -> TimingReport:
    """Fold a run-length cost program into a :class:`TimingReport`.

    The one path from a cost stream to a report, for every engine: the
    integer totals (flops, bytes, tiles) multiply each run's pattern by its
    repeat count, and :func:`_pipeline_timeline` folds the program's
    per-tile windows.
    """
    steps = [(cost, count) for costs, count in program for cost in costs]
    total, dma_busy, comp_busy = _pipeline_timeline(program, contention)
    return TimingReport(
        seconds=total,
        flops=sum(count * cost.flops for cost, count in steps),
        dma_seconds=dma_busy,
        compute_seconds=comp_busy,
        bytes_get=sum(count * cost.bytes_get for cost, count in steps),
        bytes_put=sum(count * cost.bytes_put for cost, count in steps),
        tiles=sum(count for _, count in steps),
        peak_flops=peak_flops,
    )


#: Relative slack taken off :func:`pipeline_lower_bound`.  It covers the
#: fold's rounding with room to spare: over 79,716 random cost programs of
#: up to 600 tiles, at contention 0, 0.5, 1 and random, the unshrunk bound
#: sat at most 7.4e-14 above the folded total.
BOUND_MARGIN = 1e-9


def pipeline_lower_bound(
    program: CostProgram, contention: float = OVERLAP_CONTENTION
) -> float:
    """A lower bound on :func:`_pipeline_timeline`'s total, from sums alone.

    With ``C`` = sum of repeat x compute seconds, ``D`` = sum of repeat x
    (get + put seconds) and ``c`` = ``contention``, the bound is
    ``max(C, D) + c * min(C, D)``, shrunk by :data:`BOUND_MARGIN`.  Proof,
    in exact arithmetic, where the timeline's
    ``M = max(end_get, end_put, end_comp, dma_busy)``:

    * ``M >= D``, because ``D`` is ``dma_busy``;
    * ``M >= C``, because computes run back to back, so ``end_comp`` is at
      least their sum;
    * ``total = M + c * max(0, C + D - M)`` is nondecreasing in ``M`` for
      ``c`` in [0, 1] (its slope is ``1 - c`` or 1), so
      ``total >= max(C, D) + c * (C + D - max(C, D))``, the bound.

    The margin covers the rounding of both sides, so a program whose bound
    exceeds a folded total is strictly slower than it.  A change to how
    :func:`_pipeline_timeline` totals must keep this proof.
    """
    compute = transfer = 0.0
    for pattern, count in program:
        compute += count * sum(cost.compute_seconds for cost in pattern)
        transfer += count * sum(cost.get_seconds + cost.put_seconds for cost in pattern)
    bound = max(compute, transfer) + contention * min(compute, transfer)
    return bound * (1.0 - BOUND_MARGIN)


@dataclass(frozen=True)
class PricedWalk:
    """A timed walk priced but not yet folded.

    :meth:`fold` is what the engine's timed walk returns, and
    :meth:`lower_bound` bounds its ``seconds`` without folding.
    """

    program: CostProgram
    contention: float
    peak_flops: float
    #: The layer's flop count, which the program's tiles must cover.
    flops: int

    def lower_bound(self) -> float:
        """At most :meth:`fold`'s ``seconds`` (see :func:`pipeline_lower_bound`)."""
        return pipeline_lower_bound(self.program, self.contention)

    def fold(self) -> TimingReport:
        report = _fold_program(self.program, self.contention, self.peak_flops)
        if report.flops != self.flops:
            raise SimulationError(
                f"schedule flop count {report.flops} does not cover the layer "
                f"({self.flops}); the plan's tiling is incomplete"
            )
        return report


def effective_mesh_size(mesh_size: int, fenced) -> int:
    """Largest usable square submesh when some CPEs are fenced off.

    Dropping every mesh row (or column — whichever set is smaller) that
    contains a fenced CPE leaves a fully healthy rectangular region at least
    ``mesh_size - dropped`` on a side.  Of the sizes that fit, the largest
    *divisor* of the original mesh size is chosen: any operand that divided
    into the full mesh's blocks also divides into the submesh's, so the same
    tile schedule replays on the smaller mesh without re-planning shapes.
    Returns 0 when no healthy submesh exists.
    """
    if not fenced:
        return mesh_size
    rows = {r for r, _ in fenced}
    cols = {c for _, c in fenced}
    bound = mesh_size - min(len(rows), len(cols))
    for size in range(mesh_size, 0, -1):
        if size <= bound and mesh_size % size == 0:
            return size
    return 0


def _blocks(flat: np.ndarray, shape: Tuple[int, ...], strides: Tuple[int, ...]) -> np.ndarray:
    """Every block of ``flat`` of this shape and these element strides.

    Indexed by the offset of its first element: a view whose blocks
    overlap and whose writes go through to ``flat``, so blocks written
    together must be disjoint.
    """
    extent = sum((n - 1) * stride for n, stride in zip(shape, strides))
    item = flat.itemsize
    return np.ndarray(
        (flat.size - extent,) + tuple(shape),
        flat.dtype,
        flat,
        0,
        (item,) + tuple(stride * item for stride in strides),
    )


class ConvolutionEngine:
    """Executes a convolution plan on one simulated core group.

    With a :class:`repro.faults.FaultPlan` attached the engine runs the
    degraded machine: DMA time is charged at the derated bandwidth, and if
    the plan fences CPEs the mesh backends *replan around them* — the
    register-communication GEMM executes on the largest healthy square
    submesh (see :func:`effective_mesh_size`) with compute time charged for
    the surviving CPEs only, instead of aborting the layer.
    """

    def __init__(
        self,
        plan: ConvPlan,
        spec: Optional[SW26010Spec] = None,
        backend: str = "numpy",
        stride_efficiency: float = DMA_STRIDE_EFFICIENCY,
        overlap_contention: float = OVERLAP_CONTENTION,
        fault_plan=None,
        fused_pool: int = 1,
        telemetry=None,
    ):
        if backend not in BACKENDS:
            raise PlanError(f"unknown compute backend {backend!r}")
        _check_timing_knobs(stride_efficiency, overlap_contention)
        self.plan = plan
        self.spec = spec or plan.spec
        self.backend = backend
        self.stride_efficiency = stride_efficiency
        self.overlap_contention = overlap_contention
        self.fault_plan = fault_plan
        #: Observability session (captured ambient when not passed); the
        #: disabled default dispatches to shared no-op singletons.
        self.telemetry = telemetry if telemetry is not None else current_telemetry()
        if fused_pool < 1:
            raise PlanError(f"fused_pool must be >= 1, got {fused_pool}")
        if fused_pool > 1:
            p = plan.params
            if p.ro % fused_pool != 0 or p.co % fused_pool != 0:
                raise PlanError(
                    f"fused {fused_pool}x{fused_pool} pooling does not divide "
                    f"the {p.ro}x{p.co} output"
                )
            # The fused epilogue holds a pooled-row accumulator in LDM (the
            # output tile averaged down by s^2) on top of the plan's own
            # regions; the combined footprint must still fit.
            from repro.core.ldm_blocking import assert_fits_in_ldm

            regions = plan.ldm_regions()
            out_bytes = sum(n for name, n in regions if name.startswith("output"))
            pool_bytes = -(-out_bytes // (fused_pool * fused_pool))
            assert_fits_in_ldm(
                regions + [("pool.accumulator", pool_bytes)], self.spec
            )
        self.fused_pool = fused_pool
        self._dma_model = table_ii_model(self.spec.dma_alignment)
        # Memoized weight-layout packing (see run(filter_version=...)): one
        # contiguous (No, bNi) slice per distinct (kr, kc, ni-block) the
        # schedule touches, valid for one (filter tensor, version) pair.
        self._filter_pack: Dict[Tuple[int, int, int], np.ndarray] = {}
        self._filter_pack_token: Optional[Tuple[int, int]] = None
        self._filter_pack_w: Optional[np.ndarray] = None
        self._mesh_gemm: Optional[MeshGemm] = None
        self.mesh_size = self.spec.mesh_size
        self._effective_cpes = self.spec.cpes_per_group
        if fault_plan is not None:
            fenced = fault_plan.fenced(self.spec.mesh_size)
            if fenced:
                self.mesh_size = effective_mesh_size(self.spec.mesh_size, fenced)
                if self.mesh_size < 1:
                    raise CPEFaultError(
                        f"no healthy submesh remains: {len(fenced)} of "
                        f"{self.spec.cpes_per_group} CPEs fenced"
                    )
                self._effective_cpes = self.mesh_size * self.mesh_size
                if self.mesh_size != self.spec.mesh_size:
                    fault_plan.ledger.record(
                        "engine",
                        "replan",
                        f"replanned around {len(fenced)} fenced CPE(s): "
                        f"{self.spec.mesh_size}x{self.spec.mesh_size} mesh -> "
                        f"{self.mesh_size}x{self.mesh_size}",
                    )
        if backend in ("mesh", "mesh-fast"):
            mode = "session" if backend == "mesh-fast" else "full"
            mesh_spec = (
                self.spec
                if self.mesh_size == self.spec.mesh_size
                else self.spec.shrunk(self.mesh_size)
            )
            # The replanned submesh is built fence-free: the fenced CPEs
            # were excluded by shrinking, the survivors are healthy.
            gemm_faults = None if mesh_spec is not self.spec else fault_plan
            self._mesh_gemm = MeshGemm(
                spec=mesh_spec,
                mode=mode,
                fault_plan=gemm_faults,
                telemetry=self.telemetry,
            )
        if self.telemetry.enabled:
            # The plan's declared LDM footprint is the high-water mark every
            # tile reaches (regions are allocated up front on real hardware).
            self.telemetry.counters.record_max(
                "ldm.plan_regions_bytes", sum(n for _, n in plan.ldm_regions())
            )

    # -- timing -----------------------------------------------------------------

    def _transfer_seconds(self, nbytes: int, block: int, direction: str) -> float:
        bw = self._dma_model.bandwidth(
            block, direction, aligned=self._dma_model.is_aligned(block)
        )
        if self.fault_plan is not None:
            bw *= self.fault_plan.dma_bandwidth_factor
        return nbytes / (bw * self.stride_efficiency)

    def _compute_seconds(self, flops: int) -> float:
        """Time for the CPE cluster to execute ``flops`` through the kernel.

        Per-CPE vector FMAs divided by the reordered kernel's simulated
        FMA-per-cycle rate — the execution efficiency for Ni/8 iterations of
        the plan's *register blocking* shape (``rbB/4`` input vectors x
        ``rbNo`` splat vectors).  The paper's (16, 4) blocking reproduces
        the Section VI-B numbers; the autotuner may select other shapes,
        whose cycle counts derive the same way, from one steady-state
        simulation per shape.
        """
        if flops == 0:
            return 0.0
        ni = self.plan.params.ni
        blocking = getattr(self.plan, "blocking", None)
        if blocking is not None and hasattr(blocking, "ni_block"):
            ni = blocking.ni_block(ni)
        iterations = max(1, -(-ni // 8))
        rb = self.plan.register_blocking
        ee = _measured_ee(iterations, rb.rb_b // 4, rb.rb_no)
        # Fenced CPEs shrink the cluster: the surviving submesh carries the
        # whole layer's flops.
        vfmas_per_cpe = flops / (
            self._effective_cpes * self.spec.flops_per_cycle
        )
        cycles = vfmas_per_cpe / ee
        return self.spec.cycles_to_seconds(cycles)

    def _step_cost(self, step: TileStep) -> _StepCost:
        """Cost of one tile step: its DMA gets and puts and its GEMM time."""
        get_s = sum(
            self._transfer_seconds(t.nbytes, t.block_bytes, "get") for t in step.gets
        )
        # A fused s x s pooling epilogue averages each output tile down in
        # LDM before its DMA put: 1/s^2 of the bytes move, in runs 1/s as
        # long (pooled rows are co/s elements).
        s = self.fused_pool
        if s > 1:
            puts = [
                (-(-t.nbytes // (s * s)), max(1, t.block_bytes // s))
                for t in step.puts
            ]
        else:
            puts = [(t.nbytes, t.block_bytes) for t in step.puts]
        put_s = sum(
            self._transfer_seconds(nbytes, block, "put") for nbytes, block in puts
        )
        return _StepCost(
            get_seconds=get_s,
            compute_seconds=self._compute_seconds(step.flops),
            put_seconds=put_s,
            flops=step.flops,
            bytes_get=sum(t.nbytes for t in step.gets),
            bytes_put=sum(nbytes for nbytes, _ in puts),
        )

    def _timing_key(self) -> Tuple:
        """Memoization key for a timed walk of this engine's schedule.

        Beyond the plan signature and the timing knobs, the key carries the
        fault plan's *standing degradations* — the DMA bandwidth derate and
        the effective mesh size left after fencing — so a timing cached on a
        healthy chip is never reused for a degraded one (or vice versa).
        """
        degraded_bw = (
            self.fault_plan.dma_bandwidth_factor if self.fault_plan is not None else 1.0
        )
        return (
            self.plan.signature(),
            self.spec,
            self.stride_efficiency,
            self.overlap_contention,
            degraded_bw,
            self.mesh_size,
            self._effective_cpes,
            self.fused_pool,
        )

    def _priced_program(self) -> CostProgram:
        """The plan's tile program with each distinct step priced once.

        Same ``(pattern, repeat)`` runs as :meth:`ConvPlan.tile_program`,
        with every step replaced by its cost: what the timed walk folds.
        """
        priced: Dict[int, _StepCost] = {}
        runs = []
        for pattern, count in self.plan.tile_program():
            costs = []
            for step in pattern:
                cost = priced.get(id(step))
                if cost is None:
                    cost = priced[id(step)] = self._step_cost(step)
                costs.append(cost)
            runs.append((tuple(costs), count))
        return runs

    def priced_walk(self) -> PricedWalk:
        """The priced tile program, ready to fold or bound."""
        return PricedWalk(
            self._priced_program(),
            self.overlap_contention,
            self.spec.peak_flops_per_cg,
            self.plan.params.flops(),
        )

    def _timed_walk(self) -> TimingReport:
        """Fold the priced tile program into a report (the memo's miss path)."""
        return self.priced_walk().fold()

    def evaluate(self) -> TimingReport:
        """Timed walk of the tile program (no tensor data is touched).

        Each distinct tile is priced once and the double-buffered schedule
        is a few array operations over the per-tile costs; integer totals
        (flops, bytes, tiles) are multiplied by the runs' repeat counts.
        Results are memoized process-wide on the plan signature and the
        engine's timing knobs, so re-timing the same plan (chip strips,
        sweeps, repeated training layers) costs a dictionary lookup.
        :meth:`run` returns the same report.
        """
        return _evaluated(self, self._timed_walk)

    def tile_intervals(self, max_tiles: int) -> List[TileInterval]:
        """The first ``max_tiles`` tiles' scheduled intervals.

        The priced tile program through :func:`pipeline_intervals`, the
        schedule the timed walk folds down — what the Gantt tracer and
        :meth:`record_tile_spans` show.
        """
        if max_tiles < 0:
            raise ValueError(f"max_tiles must be >= 0, got {max_tiles}")
        return pipeline_intervals(self._priced_program(), max_tiles)

    def record_tile_spans(self, max_tiles: int = 64) -> int:
        """Record the first ``max_tiles`` tiles' intervals as sim spans.

        Emits one span per non-empty get/compute/put window of
        :meth:`tile_intervals` on the simulated-timeline tracks.  Returns
        the number of tiles recorded.
        """
        tracer = self.telemetry.tracer
        if not tracer.enabled:
            return 0
        intervals = self.tile_intervals(max_tiles)
        for interval in intervals:
            i = interval.index
            if interval.get_seconds > 0:
                tracer.record_sim(
                    f"tile[{i}].get", interval.get_start, interval.get_end,
                    track="dma-get", cat="tile",
                )
            if interval.compute_seconds > 0:
                tracer.record_sim(
                    f"tile[{i}].compute",
                    interval.compute_start, interval.compute_end,
                    track="compute", cat="tile",
                )
            if interval.put_seconds > 0:
                tracer.record_sim(
                    f"tile[{i}].put", interval.put_start, interval.put_end,
                    track="dma-put", cat="tile",
                )
        return len(intervals)

    # -- functional -----------------------------------------------------------

    def _filter_pack_for(
        self, w: np.ndarray, version: int
    ) -> Dict[Tuple[int, int, int], np.ndarray]:
        """The memoized packed-slice table for ``(w, version)``.

        A stale token (different tensor object, or the same tensor after a
        parameter update bumped its version) drops every packed slice; a
        matching token reuses them as-is.  The engine keeps a strong
        reference to ``w`` so the identity half of the token cannot be
        recycled while packs are alive.
        """
        token = (id(w), version)
        if token != self._filter_pack_token:
            if self._filter_pack_token is not None:
                self.telemetry.counters.add("engine.filter_pack.invalidations")
            self._filter_pack = {}
            self._filter_pack_token = token
            self._filter_pack_w = w
        return self._filter_pack

    def prepack_filters(self, w: np.ndarray, version: int = 0) -> int:
        """Eagerly pack every filter slice the schedule will request.

        Walks the plan's compute specs and materializes the contiguous
        ``(No, bNi)`` slice for each distinct ``(kr, kc, ni-block)``, so the
        first ``run(..., filter_version=version)`` pays zero packing cost —
        the serve warm-up path.  Returns the number of packed slices.
        """
        w = np.asarray(w, dtype=np.float64)
        p = self.plan.params
        if w.shape != p.filter_shape:
            raise PlanError(f"filter shape {w.shape} != {p.filter_shape}")
        pack = self._filter_pack_for(w, version)
        built = 0
        for step in self.plan.compiled_schedule():
            for c in step.computes:
                ni_len = c.ni_len if c.ni_len >= 0 else p.ni
                key = (c.kr, c.kc, c.ni0)
                if key not in pack:
                    pack[key] = np.ascontiguousarray(
                        w[:, c.ni0 : c.ni0 + ni_len, c.kr, c.kc]
                    )
                    built += 1
        if built:
            self.telemetry.counters.add("engine.filter_pack.packs", built)
        return len(pack)

    def run(
        self,
        x: np.ndarray,
        w: np.ndarray,
        bias: Optional[np.ndarray] = None,
        activation: Optional[str] = None,
        filter_version: Optional[int] = None,
    ) -> Tuple[np.ndarray, TimingReport]:
        """Execute the plan on real data; returns (output, timing).

        ``x`` is (B, Ni, Ri, Ci) canonical order, ``w`` is (No, Ni, Kr, Kc);
        the plan's packing/unpacking between canonical and vector layouts is
        modeled in the DMA block sizes, so the functional path works on the
        canonical arrays directly.  The timing is a copy of the memoized
        :meth:`evaluate` report (read without posting its counters).

        ``bias`` (per output channel) and ``activation`` ("relu") are
        applied *fused*: each output tile gets the epilogue while still in
        LDM, before its DMA put, so the fusion costs no extra memory
        traffic — the standard library trick (cuDNN's activation-fused
        convolutions) that keeps the streaming ops off the critical path.

        With ``fused_pool=s`` the epilogue also average-pools each output
        tile ``s x s`` in LDM, so the returned tensor is the *pooled*
        output (B, No, Ro/s, Co/s) and the DMA puts move only the pooled
        bytes (see :class:`repro.core.fusion.FusedConvBlock`).

        ``filter_version`` opts the numpy backend into memoized
        weight-layout packing: the contiguous per-``(kr, kc, ni-block)``
        filter slices the schedule reads are packed once per
        ``(w, version)`` pair and reused across forward calls, and
        multiplied directly (``w_pack @ window``) instead of reducing a
        strided view — the repeated-inference fast path.  Callers that
        mutate ``w`` in place must bump the version (see
        :meth:`~repro.core.layers.Layer.notify_parameter_update`); passing
        ``None`` (the default) skips packing entirely.  The mesh backends
        take each filter operand from ``w`` itself, once per run, and
        ignore it.
        """
        p = self.plan.params
        if x.shape != p.input_shape:
            raise PlanError(f"input shape {x.shape} != {p.input_shape}")
        if w.shape != p.filter_shape:
            raise PlanError(f"filter shape {w.shape} != {p.filter_shape}")
        if bias is not None:
            bias = np.asarray(bias, dtype=np.float64)
            if bias.shape != (p.no,):
                raise PlanError(
                    f"bias must have shape ({p.no},), got {bias.shape}"
                )
        if activation not in (None, "relu"):
            raise PlanError(f"unknown fused activation {activation!r}")
        x = np.asarray(x, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        with self.telemetry.tracer.span(
            "engine.run", cat="engine", backend=self.backend, params=repr(p)
        ):
            out = self._run_tiles(x, w, bias, activation, filter_version)
            report, _ = _memoized_report(self._timing_key(), self._timed_walk)
        self.telemetry.counters.add("engine.runs")
        return out, replace(report)

    def _run_tiles(
        self,
        x: np.ndarray,
        w: np.ndarray,
        bias: Optional[np.ndarray],
        activation: Optional[str],
        filter_version: Optional[int] = None,
    ) -> np.ndarray:
        p = self.plan.params
        out = np.zeros(p.output_shape, dtype=np.float64)
        if self._mesh_gemm is not None:
            # Bus/LDM statistics describe one plan execution, not the
            # engine's lifetime.
            self._mesh_gemm.reset_stats()
            self._run_walk(x, w, out)
        else:
            self._run_updates(x, w, out, filter_version)
        # Fused epilogue: on hardware this runs per output tile while it is
        # still in LDM (before the DMA put), so it adds no memory traffic
        # and hides under P1; functionally it is elementwise, so applying
        # it once after the tile loop is identical.
        if bias is not None or activation == "relu" or self.fused_pool > 1:
            with self.telemetry.tracer.span(
                "engine.fused_epilogue",
                cat="engine",
                bias=bias is not None,
                activation=activation or "",
                pool=self.fused_pool,
            ):
                if bias is not None:
                    out += bias[None, :, None, None]
                if activation == "relu":
                    np.maximum(out, 0.0, out=out)
                if self.fused_pool > 1:
                    # Fused average pooling: tiles are averaged down in LDM
                    # before their (already pool-scaled) DMA puts;
                    # functionally elementwise over disjoint windows, so
                    # pooling once at the end is identical.
                    s = self.fused_pool
                    b, no, ro, co = out.shape
                    out = out.reshape(b, no, ro // s, s, co // s, s).mean(
                        axis=(3, 5)
                    )
        return out

    def _run_updates(
        self,
        x: np.ndarray,
        w: np.ndarray,
        out: np.ndarray,
        filter_version: Optional[int],
    ) -> None:
        """The numpy backend: each compute update in turn, straight into ``out``."""
        p = self.plan.params
        pack = (
            self._filter_pack_for(w, filter_version)
            if filter_version is not None
            else None
        )
        for step in self.plan.compiled_schedule():
            for c in step.computes:
                ni_len = c.ni_len if c.ni_len >= 0 else p.ni
                ni_slice = slice(c.ni0, c.ni0 + ni_len)
                window = x[
                    c.bb : c.bb + c.bb_len,
                    ni_slice,
                    c.ro + c.kr,
                    c.co + c.kc : c.co + c.kc + c.co_len,
                ]
                target = out[c.bb : c.bb + c.bb_len, :, c.ro, c.co : c.co + c.co_len]
                if pack is not None:
                    key = (c.kr, c.kc, c.ni0)
                    w_slice = pack.get(key)
                    if w_slice is None:
                        w_slice = np.ascontiguousarray(w[:, ni_slice, c.kr, c.kc])
                        pack[key] = w_slice
                        self.telemetry.counters.add("engine.filter_pack.packs")
                    # Packed operand: one BLAS-dispatched matmul on the
                    # contiguous slice, bit-identical to the einsum
                    # reduction below (same per-element dot order) at a
                    # fraction of its dispatch cost.
                    target += w_slice @ window
                else:
                    target += np.einsum(
                        "on,bnc->boc", w[:, ni_slice, c.kr, c.kc], window, optimize=True
                    )

    def _run_walk(self, x: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
        """The mesh backends: the plan's compiled walk, operand-major.

        Per chunk of whole tiles (:class:`~repro.core.plans.CompiledWalk`)
        and per filter operand, in the operands' common order: gather
        every tile's window into one stack of D operands, multiply it with
        the shared filter slice in one register-comm call (each tile's
        window is still one Fig. 3 pair), and add the product into the
        chunk's accumulator.  The accumulator is then written to its tiles
        once.  Every output element receives the products of updating
        tile by tile, in the same order, so the output is bit-identical to
        it.
        """
        p = self.plan.params
        walk = self.plan.compiled_walk()
        gemm = self._mesh_gemm
        x_flat, out_flat = x.ravel(), out.reshape(-1)
        operands = [
            (np.ascontiguousarray(w[:, ni0 : ni0 + ni_len, kr, kc]),
             (ni0 * p.ri + kr) * p.ci + kc)
            for kr, kc, ni0, ni_len in walk.operands
        ]
        x_strides = (p.ri * p.ci, p.ni * p.ri * p.ci, 1)
        out_strides = (p.no * p.ro * p.co, p.ro * p.co, 1)
        for chunk in walk.chunks:
            bb_len, co_len = chunk.shape
            tiles = len(chunk.x_base)
            # Per Ni-block length, every window: (Ni-block, bb_len, co_len).
            windows = {
                ni_len: _blocks(x_flat, (ni_len, bb_len, co_len), x_strides)
                for ni_len in {w_slice.shape[1] for w_slice, _ in operands}
            }
            acc = np.zeros((p.no, tiles, bb_len * co_len))
            for w_slice, offset in operands:
                ni_len = w_slice.shape[1]
                d = windows[ni_len][chunk.x_base + offset].reshape(tiles, ni_len, -1)
                acc += gemm.multiply(w_slice, d).transpose(1, 0, 2)
            targets = _blocks(out_flat, (bb_len, p.no, co_len), out_strides)
            targets[chunk.out_base] = acc.reshape(
                p.no, tiles, bb_len, co_len
            ).transpose(1, 2, 0, 3)


def conv_forward(
    x: np.ndarray,
    w: np.ndarray,
    plan: Optional[ConvPlan] = None,
    backend: str = "numpy",
    spec: SW26010Spec = DEFAULT_SPEC,
) -> np.ndarray:
    """Convolve through the simulated SW26010 pipeline (public API).

    Plans the layer with the performance model when ``plan`` is omitted.
    """
    from repro.core.planner import plan_convolution

    b, ni, ri, ci = np.asarray(x).shape
    no, _, kr, kc = np.asarray(w).shape
    params = ConvParams(ni=ni, no=no, ri=ri, ci=ci, kr=kr, kc=kc, b=b)
    if plan is None:
        plan = plan_convolution(params, spec=spec).plan
    engine = ConvolutionEngine(plan, spec=spec, backend=backend)
    out, _ = engine.run(x, w)
    return out


def evaluate_chip(
    params: ConvParams,
    plan_kind: Optional[str] = None,
    num_groups: Optional[int] = None,
    spec: SW26010Spec = DEFAULT_SPEC,
    plan_cache: Optional[str] = None,
    telemetry=None,
) -> Tuple[float, List[TimingReport]]:
    """Timed multi-CG execution (Section III-D row partitioning).

    Output rows are split across ``num_groups`` core groups, each running
    its strip with the same plan family; the slowest strip gates the layer.
    Returns (chip Gflop/s, per-CG reports).

    ``plan_cache`` names an on-disk plan-cache directory: each strip's plan
    then comes from the autotuner (see :mod:`repro.tune`) — tuned once,
    persisted, and shared across every sweep configuration and resumed run
    that passes the same path.
    """
    from repro.hw.chip import partition_rows
    from repro.core.planner import plan_convolution
    from repro.core.plans import make_plan

    telemetry = telemetry if telemetry is not None else current_telemetry()
    n = num_groups if num_groups is not None else spec.num_core_groups
    strips = partition_rows(params.ro, n)
    reports = []
    for cg, (start, stop) in enumerate(strips):
        rows = stop - start
        if rows == 0:
            continue
        strip_params = params.with_rows(rows)
        with telemetry.tracer.span(
            "chip.strip", cat="chip", cg=cg, rows=rows
        ):
            if plan_cache is not None:
                from repro.tune import autotune

                plan = autotune(strip_params, spec=spec, cache=plan_cache).plan
            elif plan_kind is None:
                plan = plan_convolution(strip_params, spec=spec).plan
            else:
                plan = make_plan(plan_kind, strip_params, spec=spec)
            reports.append(
                ConvolutionEngine(plan, spec=spec, telemetry=telemetry).evaluate()
            )
    if not reports:
        raise PlanError("no core group received any rows")
    seconds = max(r.seconds for r in reports)
    total_flops = sum(r.flops for r in reports)
    return total_flops / seconds / 1e9, reports
