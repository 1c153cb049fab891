"""The convolution algorithm zoo: engine-level im2col and Winograd.

The paper ships one spatial-domain mapping — direct summation lowered onto
the register-communication mesh — and Section III-C argues the choice.
MG3MConv (PAPERS.md) later showed SW26010 convolution wins by *choosing*
among several matrix-multiplication mappings per layer shape.  This module
adds the two GEMM-lowered spatial-domain families as execution paths the
autotuner can search:

* **im2col** — materialize the lowered ``(Ni*Kr*Kc) x (B*Ro*Co)`` matrix in
  memory (one serial DMA pass, replicating each input pixel ``Kr*Kc``
  times), then run one LDM-tiled mesh GEMM
  (:class:`~repro.core.gemm_plan.GemmPlan`) against the reshaped filters.
* **winograd** — fused F(2x2, 3x3): transform filters and 4x4 input tiles
  into the Winograd domain (materialized, one DMA pass), run the 16
  pointwise ``No x Ni`` reductions as mesh GEMMs over the transformed
  tiles, and apply the inverse transform *in LDM* so only the 2x2 useful
  outputs are stored — 16 multiplies per output tile instead of 36, at a
  calibrated ~20% transform-arithmetic overhead.

Both families reuse the direct path's machinery end to end: the Table II
DMA model prices every transfer, :func:`~repro.core.conv._fold_program`
schedules double-buffered tiles, the timed reports share the direct
engine's memo, and the engines feed the same telemetry counters
(``engine.bytes_get`` ...), so the communication oracle
(:mod:`repro.telemetry.oracle`) can compare all three algorithms on equal
footing.

Legality: Winograd requires 3x3 filters at stride 1 (the only stride this
simulator models; a stride argument exists so enumeration can refuse
hypothetical strided shapes explicitly).  im2col and direct accept any
modeled shape.  :func:`enumerate_gemm_blockings` yields the LDM-feasible
tile shapes of a lowered GEMM — the zoo's analogue of the direct families'
blocking sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import PlanError
from repro.core.conv import (
    BACKENDS,
    OVERLAP_CONTENTION,
    ConvolutionEngine,
    CostProgram,
    PricedWalk,
    TimingReport,
    _check_timing_knobs,
    _evaluated,
    _fold_program,
    _StepCost,
)
from repro.core.gemm_plan import (
    GemmEngine,
    GemmParams,
    GemmPlan,
    choose_gemm_blocking,
    rbw_gemm,
)
from repro.core.ldm_blocking import assert_fits_in_ldm
from repro.core.params import ConvParams
from repro.core.plans import ConvPlan
from repro.core.reference import conv2d_im2col
from repro.core.register_blocking import PAPER_REGISTER_BLOCKING, RegisterBlocking
from repro.hw.dma import table_ii_model
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.perf.dma_model import DMA_STRIDE_EFFICIENCY, DMAStream, blended_mbw
from repro.perf.equations import DS, rbw_ldm_reg_gemm_simd
from repro.perf.model import PerformanceEstimate, _measured_ee
from repro.telemetry import current_telemetry

#: The algorithm families the zoo knows, in canonical order.  "direct" is
#: the paper's conv->mesh mapping (Algorithms 1 and 2); the other two are
#: GEMM-lowered paths added by this module.
ALGORITHMS = ("direct", "im2col", "winograd")

#: F(2x2, 3x3) transform matrices (Lavin & Gray, 2015).
WINOGRAD_B_T = np.array(
    [
        [1.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, -1.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, -1.0],
    ]
)
WINOGRAD_G = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.5, 0.5, 0.5],
        [0.5, -0.5, 0.5],
        [0.0, 0.0, 1.0],
    ]
)
WINOGRAD_A_T = np.array(
    [
        [1.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, -1.0, -1.0],
    ]
)

#: Direct 3x3 needs 36 multiplies per 2x2 output tile; F(2x2,3x3) needs 16.
WINOGRAD_ARITHMETIC_REDUCTION = 36.0 / 16.0

#: The transform adds (B^T d B, G g G^T, A^T m A) are not free: calibrated
#: as a flat multiplier on the pointwise-stage compute time.
WINOGRAD_TRANSFORM_OVERHEAD = 1.2

#: DMA block-size clamp shared with :class:`~repro.core.gemm_plan.GemmEngine`.
_BLOCK_CLAMP = 512


def resolve_algorithms(
    algorithms: Union[None, str, Sequence[str]],
) -> Tuple[str, ...]:
    """Canonicalize an ``algorithms=`` restriction.

    ``None`` means the status quo: the direct algorithm only.  Searching
    the lowered families is an explicit opt-in ("all" or a sequence) —
    they cannot host the guarded fallback ladder or the fused pooling
    epilogue, and their outputs are allclose-but-not-bit-identical to the
    direct path, which the serving pool's batched-vs-single invariant
    forbids by default.
    """
    if algorithms is None:
        return ("direct",)
    if isinstance(algorithms, str):
        if algorithms == "all":
            return ALGORITHMS
        algorithms = (algorithms,)
    unknown = [a for a in algorithms if a not in ALGORITHMS]
    if unknown:
        raise ValueError(
            f"unknown algorithms {unknown}; expected a subset of {ALGORITHMS}"
        )
    if not algorithms:
        raise ValueError("algorithms must name at least one algorithm")
    seen = set(algorithms)
    return tuple(a for a in ALGORITHMS if a in seen)


def algorithm_legal(
    algorithm: str, params: ConvParams, stride: int = 1
) -> bool:
    """Whether ``algorithm`` can execute this shape.

    The simulator models valid stride-1 convolutions; ``stride`` lets the
    enumeration refuse hypothetical strided shapes explicitly (F(2x2,3x3)
    is a stride-1 identity — a stride-2 "Winograd" candidate would compute
    the wrong function, so it must never be enumerated).
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; known: {ALGORITHMS}")
    if stride != 1:
        return False
    if algorithm == "winograd":
        return (params.kr, params.kc) == (3, 3)
    return True


def legal_algorithms(params: ConvParams, stride: int = 1) -> Tuple[str, ...]:
    """The subset of :data:`ALGORITHMS` legal for this shape."""
    return tuple(a for a in ALGORITHMS if algorithm_legal(a, params, stride))


@dataclass(frozen=True)
class GemmBlocking:
    """LDM tile shape of a lowered algorithm's mesh GEMM."""

    b_m: int
    b_n: int
    b_k: int

    def __post_init__(self) -> None:
        if min(self.b_m, self.b_n, self.b_k) < 1:
            raise ValueError(f"GEMM tile sizes must be positive: {self}")

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.b_m, self.b_n, self.b_k)


def winograd_tiles(params: ConvParams) -> Tuple[int, int]:
    """(tiles_h, tiles_w) of the F(2x2,3x3) tiling, output padded to even."""
    return -(-params.ro // 2), -(-params.co // 2)


def lowered_gemm_params(algorithm: str, params: ConvParams) -> GemmParams:
    """The mesh-GEMM problem a lowered algorithm solves for this shape.

    im2col: ``C (No x B*Ro*Co) = W (No x Ni*Kr*Kc) . cols``.  Winograd:
    each of the 16 transform components is ``C (No x B*tiles) = U . V``;
    the returned params describe *one* component (the schedule walks all
    16 per tile step).
    """
    if algorithm == "im2col":
        return GemmParams(
            m=params.no,
            n=params.b * params.ro * params.co,
            k=params.ni * params.kr * params.kc,
        )
    if algorithm == "winograd":
        th, tw = winograd_tiles(params)
        return GemmParams(m=params.no, n=params.b * th * tw, k=params.ni)
    raise ValueError(f"no lowered GEMM for algorithm {algorithm!r}")


def enumerate_gemm_blockings(
    algorithm: str,
    params: ConvParams,
    spec: SW26010Spec = DEFAULT_SPEC,
) -> List[GemmBlocking]:
    """LDM-feasible GEMM tile shapes for a lowered algorithm on this shape.

    The doubling search of :func:`~repro.core.gemm_plan.choose_gemm_blocking`
    finds the largest square-ish tile; the enumeration adds halvings of the
    streaming dimensions (``bN``, ``bK``) around it — smaller tiles trade
    panel-amortization for shorter pipeline stages, a trade only the
    measured search can judge.  Returns ``[]`` when no tiling fits LDM.
    """
    if not algorithm_legal(algorithm, params):
        return []
    gp = lowered_gemm_params(algorithm, params)
    try:
        b_m, b_n, b_k = choose_gemm_blocking(gp, spec)
    except PlanError:
        return []
    out: List[GemmBlocking] = []
    seen = set()
    for n_div in (1, 2, 4):
        for k_div in (1, 2):
            blocking = GemmBlocking(
                b_m=b_m,
                b_n=max(1, min(gp.n, b_n // n_div)),
                b_k=max(1, min(gp.k, b_k // k_div)),
            )
            if blocking not in seen:
                seen.add(blocking)
                out.append(blocking)
    return out


class LoweredConvPlan:
    """Base of the GEMM-lowered plan families.

    Mirrors the :class:`~repro.core.plans.ConvPlan` surface the engines,
    tuner, serializer and telemetry consume — ``name``, ``params``,
    ``blocking``, ``register_blocking``, ``signature()``, ``dma_streams()``,
    ``ldm_regions()``, ``estimate()`` — while the schedule itself is the
    tiled mesh GEMM of :class:`~repro.core.gemm_plan.GemmPlan` plus the
    algorithm's lowering/transform DMA pass.
    """

    name: str = "abstract-lowered"
    algorithm: str = "abstract-lowered"

    def __init__(
        self,
        params: ConvParams,
        blocking: Optional[GemmBlocking] = None,
        register_blocking: RegisterBlocking = PAPER_REGISTER_BLOCKING,
        spec: SW26010Spec = DEFAULT_SPEC,
    ):
        if not algorithm_legal(self.algorithm, params):
            raise PlanError(
                f"{self.algorithm} cannot execute {params.describe()}"
            )
        self.params = params
        self.spec = spec
        self.register_blocking = register_blocking
        register_blocking.check_feasible(spec)
        self.gemm_params = lowered_gemm_params(self.algorithm, params)
        if blocking is None:
            blocking = GemmBlocking(*choose_gemm_blocking(self.gemm_params, spec))
        self.blocking = blocking
        self._gemm_plan = GemmPlan(
            self.gemm_params,
            blocking=blocking.as_tuple(),
            register_blocking=register_blocking,
            spec=spec,
        )
        self.validate()

    # -- identity -------------------------------------------------------------

    def signature(self) -> Tuple:
        """Hashable identity, same shape as :meth:`ConvPlan.signature`."""
        return (
            self.name,
            self.params,
            self.blocking,
            self.register_blocking,
            self.spec,
        )

    def gemm_plan(self) -> GemmPlan:
        return self._gemm_plan

    # -- LDM ------------------------------------------------------------------

    def ldm_regions(self) -> List[Tuple[str, int]]:
        """Per-CPE LDM regions: double-buffered A/B panels + resident C."""
        per_cpe = self.spec.cpes_per_group
        blk = self.blocking
        a_tile = -(-blk.b_m * blk.b_k // per_cpe) * DS
        b_tile = -(-blk.b_k * blk.b_n // per_cpe) * DS
        c_tile = -(-blk.b_m * blk.b_n // per_cpe) * DS
        return [
            ("gemm.a.ping", a_tile),
            ("gemm.a.pong", a_tile),
            ("gemm.b.ping", b_tile),
            ("gemm.b.pong", b_tile),
            ("gemm.c", c_tile),
        ]

    def validate(self) -> None:
        assert_fits_in_ldm(self.ldm_regions(), self.spec)

    # -- traffic and modeling -------------------------------------------------

    def dma_streams(self) -> List[DMAStream]:
        raise NotImplementedError

    def total_dma_bytes(self) -> int:
        return int(sum(s.bytes_moved for s in self.dma_streams()))

    def rbw_mem(self) -> float:
        return rbw_gemm(
            self.blocking.b_m,
            self.blocking.b_n,
            self.gemm_params.k,
            peak_flops=self.spec.peak_flops_per_cg,
        )

    def _effective_ee(self) -> float:
        """Execution efficiency in *direct-equivalent* terms.

        The estimate's flop budget is the direct convolution's
        (:meth:`ConvParams.flops`), so an algorithm that needs fewer (or
        more) machine flops for the same layer folds the ratio into its
        efficiency — the score stays comparable across families.
        """
        ee = _measured_ee(max(1, -(-self.gemm_params.k // 8)))
        machine = self.machine_flops()
        return ee * (self.params.flops() / machine)

    def machine_flops(self) -> int:
        """Flops the lowered schedule actually executes."""
        raise NotImplementedError

    def estimate(self, model: Any = None) -> PerformanceEstimate:
        return PerformanceEstimate(
            plan=self.name,
            peak_flops=self.spec.peak_flops_per_cg,
            execution_efficiency=self._effective_ee(),
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


class Im2colPlan(LoweredConvPlan):
    """Implicit-GEMM convolution: lower, then one mesh GEMM.

    The lowering pass streams the input once and writes the
    ``(Ni*Kr*Kc) x (B*Ro*Co)`` column matrix (each pixel replicated
    ``Kr*Kc`` times — the traffic blow-up Section III-C avoids); the GEMM
    then streams lowered panels against the reshaped filter matrix.
    """

    name = "im2col"
    algorithm = "im2col"

    def lowered_bytes(self) -> int:
        p = self.params
        return p.b * p.ni * p.kr * p.kc * p.ro * p.co * DS

    def machine_flops(self) -> int:
        return self.gemm_params.flops()  # == params.flops() exactly

    def dma_streams(self) -> List[DMAStream]:
        p = self.params
        lowered = float(self.lowered_bytes())
        lower_block = min(p.ro * p.co, _BLOCK_CLAMP) * DS
        streams = [
            DMAStream("input.get", float(p.input_bytes()), min(p.ci, _BLOCK_CLAMP) * DS, "get"),
            DMAStream("lowered.put", lowered, lower_block, "put"),
        ]
        for s in self._gemm_plan.dma_streams():
            streams.append(
                DMAStream(f"gemm.{s.name}", s.bytes_moved, s.block_bytes, s.direction)
            )
        return streams


class WinogradPlan(LoweredConvPlan):
    """Fused F(2x2,3x3): transform, 16 pointwise mesh GEMMs, inverse in LDM.

    The transform pass reads the raw input and filters once and
    materializes the Winograd-domain operands (tiles inflate 4x, filters
    16/9); each tile step of the pointwise stage then streams all 16
    components of its U/V panels, reduces them on the mesh, applies
    ``A^T m A`` in LDM and stores only the 4 useful output elements per
    tile — the fused regime where the 2.25x arithmetic reduction survives.
    """

    name = "winograd"
    algorithm = "winograd"

    def transformed_input_bytes(self) -> int:
        return 16 * self.gemm_params.k * self.gemm_params.n * DS

    def transformed_filter_bytes(self) -> int:
        return 16 * self.params.no * self.params.ni * DS

    def machine_flops(self) -> int:
        return 16 * self.gemm_params.flops()

    def dma_streams(self) -> List[DMAStream]:
        p = self.params
        gp = self.gemm_params
        blk = self.blocking
        v_bytes = float(self.transformed_input_bytes())
        u_bytes = float(self.transformed_filter_bytes())
        n_tiles = -(-gp.n // blk.b_n)
        m_tiles = -(-gp.m // blk.b_m)
        v_block = min(blk.b_n, _BLOCK_CLAMP) * DS
        u_block = min(blk.b_k, _BLOCK_CLAMP) * DS
        return [
            DMAStream("input.get", float(p.input_bytes()), min(p.ci, _BLOCK_CLAMP) * DS, "get"),
            DMAStream("filter.get", float(p.filter_bytes()), min(p.no, _BLOCK_CLAMP) * DS, "get"),
            DMAStream("wino.v.put", v_bytes, v_block, "put"),
            DMAStream("wino.u.put", u_bytes, u_block, "put"),
            # Pointwise stage: V panels stream once per m-tile row, U
            # panels once per n-tile column.
            DMAStream("wino.v.get", v_bytes * m_tiles, v_block, "get"),
            DMAStream("wino.u.get", u_bytes * n_tiles, u_block, "get"),
            DMAStream("output.put", 4.0 * gp.m * gp.n * DS, v_block, "put"),
        ]


@dataclass(frozen=True)
class StagedWalk(PricedWalk):
    """A lowered plan's walk: the serial ``staging`` pass, then the
    pipelined GEMM ``program``.  ``flops`` is the layer's
    direct-equivalent count, reported as is."""

    staging: _StepCost

    def _staging_seconds(self) -> float:
        return self.staging.get_seconds + self.staging.put_seconds

    def lower_bound(self) -> float:
        """The staging time plus the GEMM program's bound."""
        return self._staging_seconds() + super().lower_bound()

    def fold(self) -> TimingReport:
        staging, staging_seconds = self.staging, self._staging_seconds()
        gemm = _fold_program(self.program, self.contention, self.peak_flops)
        return TimingReport(
            seconds=staging_seconds + gemm.seconds,
            flops=self.flops,
            dma_seconds=staging_seconds + gemm.dma_seconds,
            compute_seconds=gemm.compute_seconds,
            bytes_get=staging.bytes_get + gemm.bytes_get,
            bytes_put=staging.bytes_put + gemm.bytes_put,
            tiles=gemm.tiles + 1,
            peak_flops=self.peak_flops,
        )


class LoweredConvEngine:
    """Functional + timed execution of a lowered plan, engine-compatible.

    Exposes the :class:`~repro.core.conv.ConvolutionEngine` surface the
    layer API, handle and tuner drive — ``evaluate()``, ``run(x, w, bias,
    activation, filter_version)``, ``plan``, ``spec``, ``backend`` — and
    feeds the same telemetry counters.  Timed reports share the direct
    engine's memo (emptied by :func:`~repro.core.conv.clear_timing_cache`),
    and ``run()`` returns the ``evaluate()`` report, counting one
    evaluation.  Lowered schedules cannot host the
    degraded-machine replanner or the fused pooling epilogue; both are
    rejected at construction so a tuner restricted to lowered algorithms
    fails fast instead of silently mis-modeling.
    """

    def __init__(
        self,
        plan: LoweredConvPlan,
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
        if fault_plan is not None:
            raise PlanError(
                f"the {plan.algorithm} algorithm does not support "
                f"degraded-machine execution; tune with the direct algorithm"
            )
        if fused_pool != 1:
            raise PlanError(
                f"the {plan.algorithm} algorithm cannot host a fused "
                f"pooling epilogue (its LDM tiles are GEMM panels, not "
                f"output rows); use the direct algorithm"
            )
        self.plan = plan
        self.spec = spec or plan.spec
        self.backend = backend
        self.stride_efficiency = stride_efficiency
        self.overlap_contention = overlap_contention
        self.fault_plan = None
        self.fused_pool = 1
        self.mesh_size = self.spec.mesh_size
        self.telemetry = telemetry if telemetry is not None else current_telemetry()
        self._dma_model = table_ii_model(self.spec.dma_alignment)
        self._gemm_engine = GemmEngine(
            plan.gemm_plan(),
            backend=backend,
            stride_efficiency=stride_efficiency,
            overlap_contention=overlap_contention,
        )
        if self.telemetry.enabled:
            self.telemetry.counters.record_max(
                "ldm.plan_regions_bytes", sum(n for _, n in plan.ldm_regions())
            )

    # -- timing ---------------------------------------------------------------

    def _transfer_seconds(self, nbytes: float, block: int, direction: str) -> float:
        if nbytes <= 0:
            return 0.0
        bw = self._dma_model.bandwidth(
            block, direction, aligned=self._dma_model.is_aligned(block)
        )
        return nbytes / (bw * self.stride_efficiency)

    def _staging_cost(self) -> _StepCost:
        """The serial lowering/transform DMA pass (no overlap to hide it)."""
        raise NotImplementedError

    def _gemm_program(self) -> CostProgram:
        """The pipelined GEMM stage's priced tile program."""
        raise NotImplementedError

    def _timing_key(self) -> Tuple:
        return (
            self.plan.signature(),
            self.spec,
            self.stride_efficiency,
            self.overlap_contention,
        )

    def evaluate(self) -> TimingReport:
        """Timed walk: staging pass, then the pipelined GEMM schedule.

        ``flops`` reports the layer's *direct-equivalent* flop count
        (:meth:`ConvParams.flops`), so ``gflops`` across algorithms answers
        "how fast is this layer", not "how busy is the mesh" — the same
        convention the baselines and Table III use.
        """
        return _evaluated(self, self._timed_walk)

    def priced_walk(self) -> StagedWalk:
        """The staging pass and the GEMM program, priced, ready to fold or bound."""
        return StagedWalk(
            self._gemm_program(),
            self.overlap_contention,
            self.spec.peak_flops_per_cg,
            self.plan.params.flops(),
            self._staging_cost(),
        )

    def _timed_walk(self) -> TimingReport:
        return self.priced_walk().fold()

    # -- functional -----------------------------------------------------------

    def _mesh_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a @ b`` through the mesh backend (or numpy on the base tier).

        The register-communication protocol requires operands divisible
        into mesh-size blocks; lowered matrices are zero-padded up to the
        block grid (exact for a matmul) and the product cropped back.
        """
        mesh = self._gemm_engine._mesh
        if mesh is None:
            return a @ b
        n = self.spec.mesh_size
        pad_m = (-a.shape[0]) % n
        pad_k = (-a.shape[1]) % n
        pad_n = (-b.shape[1]) % n
        ap = np.pad(a, ((0, pad_m), (0, pad_k)))
        bp = np.pad(b, ((0, pad_k), (0, pad_n)))
        return mesh.multiply(ap, bp)[: a.shape[0], : b.shape[1]]

    def _compute(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def run(
        self,
        x: np.ndarray,
        w: np.ndarray,
        bias: Optional[np.ndarray] = None,
        activation: Optional[str] = None,
        filter_version: Optional[int] = None,
    ) -> Tuple[np.ndarray, TimingReport]:
        """Execute the lowered algorithm on real data.

        The bias/ReLU epilogue is applied before the (modeled) output puts,
        like the direct engine's fused epilogue.  ``filter_version`` is
        accepted for call compatibility; lowered paths re-transform the
        filters per call (the transform is part of the timing model).
        """
        p = self.plan.params
        x = np.asarray(x, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        if x.shape != p.input_shape:
            raise PlanError(f"input shape {x.shape} != {p.input_shape}")
        if w.shape != p.filter_shape:
            raise PlanError(f"filter shape {w.shape} != {p.filter_shape}")
        if bias is not None:
            bias = np.asarray(bias, dtype=np.float64)
            if bias.shape != (p.no,):
                raise PlanError(f"bias must have shape ({p.no},), got {bias.shape}")
        if activation not in (None, "relu"):
            raise PlanError(f"unknown fused activation {activation!r}")
        with self.telemetry.tracer.span(
            "engine.run", cat="engine", backend=self.backend,
            algorithm=self.plan.algorithm, params=repr(p),
        ):
            out = self._compute(x, w)
            if bias is not None:
                out = out + bias[None, :, None, None]
            if activation == "relu":
                out = np.maximum(out, 0.0)
        self.telemetry.counters.add("engine.runs")
        return out, self.evaluate()

    def prepack_filters(self, w: np.ndarray, version: int = 0) -> int:
        """Call-compatible no-op (returns 0 packed bytes).

        Lowered paths re-transform the filters on every call — the
        transform is part of the timing model — so there is no persistent
        packed layout to memoize.  Present so the guarded ladder and warm
        pools can treat lowered engines uniformly at warm-up.
        """
        return 0


class Im2colEngine(LoweredConvEngine):
    """Execution of an :class:`Im2colPlan`."""

    def _staging_cost(self) -> _StepCost:
        plan = self.plan
        p = plan.params
        lowered = plan.lowered_bytes()
        get_s = self._transfer_seconds(
            p.input_bytes(), min(p.ci, _BLOCK_CLAMP) * DS, "get"
        )
        put_s = self._transfer_seconds(
            lowered, min(p.ro * p.co, _BLOCK_CLAMP) * DS, "put"
        )
        return _StepCost(
            get_seconds=get_s,
            compute_seconds=0.0,
            put_seconds=put_s,
            flops=0,
            bytes_get=p.input_bytes(),
            bytes_put=lowered,
        )

    def _gemm_program(self) -> CostProgram:
        return self._gemm_engine._priced_program()

    def _compute(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        p = self.plan.params
        if self.backend == "numpy":
            return conv2d_im2col(x, w)
        cols = np.empty((p.ni * p.kr * p.kc, p.b, p.ro * p.co))
        row = 0
        for cni in range(p.ni):
            for dkr in range(p.kr):
                for dkc in range(p.kc):
                    window = x[:, cni, dkr : dkr + p.ro, dkc : dkc + p.co]
                    cols[row] = window.reshape(p.b, -1)
                    row += 1
        w_mat = w.reshape(p.no, p.ni * p.kr * p.kc)
        out_mat = self._mesh_matmul(
            w_mat, cols.reshape(p.ni * p.kr * p.kc, p.b * p.ro * p.co)
        )
        out = out_mat.reshape(p.no, p.b, p.ro, p.co)
        return np.ascontiguousarray(out.transpose(1, 0, 2, 3))


class WinogradEngine(LoweredConvEngine):
    """Execution of a :class:`WinogradPlan`."""

    def _staging_cost(self) -> _StepCost:
        plan = self.plan
        p = plan.params
        blk = plan.blocking
        v_bytes = plan.transformed_input_bytes()
        u_bytes = plan.transformed_filter_bytes()
        get_s = self._transfer_seconds(
            p.input_bytes(), min(p.ci, _BLOCK_CLAMP) * DS, "get"
        ) + self._transfer_seconds(
            p.filter_bytes(), min(p.no, _BLOCK_CLAMP) * DS, "get"
        )
        put_s = self._transfer_seconds(
            v_bytes, min(blk.b_n, _BLOCK_CLAMP) * DS, "put"
        ) + self._transfer_seconds(
            u_bytes, min(blk.b_k, _BLOCK_CLAMP) * DS, "put"
        )
        return _StepCost(
            get_seconds=get_s,
            compute_seconds=0.0,
            put_seconds=put_s,
            flops=0,
            bytes_get=p.input_bytes() + p.filter_bytes(),
            bytes_put=v_bytes + u_bytes,
        )

    def _pointwise_cost(
        self, m_len: int, n_len: int, k_len: int, last_chunk: bool
    ) -> _StepCost:
        """One tile step of the pointwise stage: all 16 components.

        The U/V panels of every component stream in (16x the bytes of one
        GEMM step); the inverse transform runs in LDM, so the put moves
        only the 4 useful output elements of each of the step's ``n_len``
        2x2 tiles, on the reduction's last chunk.
        """
        blk = self.plan.blocking
        a_bytes = 16 * m_len * k_len * DS
        b_bytes = 16 * k_len * n_len * DS
        c_bytes = 4 * m_len * n_len * DS if last_chunk else 0
        block_a = min(blk.b_k, _BLOCK_CLAMP) * DS
        block_bc = min(blk.b_n, _BLOCK_CLAMP) * DS
        flops = 16 * 2 * m_len * n_len * k_len
        ee = _measured_ee(max(1, -(-k_len // 8)))
        comp = WINOGRAD_TRANSFORM_OVERHEAD * self.spec.cycles_to_seconds(
            flops / (self.spec.cpes_per_group * self.spec.flops_per_cycle) / ee
        )
        return _StepCost(
            get_seconds=self._transfer_seconds(a_bytes, block_a, "get")
            + self._transfer_seconds(b_bytes, block_bc, "get"),
            compute_seconds=comp,
            put_seconds=self._transfer_seconds(c_bytes, block_bc, "put"),
            flops=flops,
            bytes_get=a_bytes + b_bytes,
            bytes_put=c_bytes,
        )

    def _gemm_program(self) -> CostProgram:
        gplan = self.plan.gemm_plan()
        chunks = list(gplan.k_chunks())
        cost_memo: Dict[Tuple, _StepCost] = {}
        costs = []
        for _, m_len, _, n_len in gplan.tiles():
            for i, (_, k_len) in enumerate(chunks):
                key = (m_len, n_len, k_len, i == len(chunks) - 1)
                cost = cost_memo.get(key)
                if cost is None:
                    cost = self._pointwise_cost(*key)
                    cost_memo[key] = cost
                costs.append(cost)
        return [(tuple(costs), 1)]

    def _compute(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        p = self.plan.params
        pad_r = (-p.ro) % 2
        pad_c = (-p.co) % 2
        padded = np.pad(x, ((0, 0), (0, 0), (0, pad_r), (0, pad_c)))
        u = np.einsum("ij,onjk,lk->onil", WINOGRAD_G, w, WINOGRAD_G, optimize=True)
        b_, ni, h, wd = padded.shape
        th, tw = (h - 2) // 2, (wd - 2) // 2
        s = padded.strides
        tiles = np.lib.stride_tricks.as_strided(
            padded,
            shape=(b_, ni, th, tw, 4, 4),
            strides=(s[0], s[1], 2 * s[2], 2 * s[3], s[2], s[3]),
        )
        v = np.einsum("ij,bnhwjk,lk->bnhwil", WINOGRAD_B_T, tiles, WINOGRAD_B_T,
                      optimize=True)
        if self.backend == "numpy":
            m = np.einsum("onxy,bnhwxy->bohwxy", u, v, optimize=True)
        else:
            # 16 pointwise mesh GEMMs, one per transform component.
            m = np.empty((b_, p.no, th, tw, 4, 4))
            n_cols = b_ * th * tw
            for cx in range(4):
                for cy in range(4):
                    v_mat = v[..., cx, cy].transpose(1, 0, 2, 3).reshape(ni, n_cols)
                    out_mat = self._mesh_matmul(u[..., cx, cy], v_mat)
                    m[..., cx, cy] = out_mat.reshape(
                        p.no, b_, th, tw
                    ).transpose(1, 0, 2, 3)
        out_tiles = np.einsum(
            "ij,bohwjk,lk->bohwil", WINOGRAD_A_T, m, WINOGRAD_A_T, optimize=True
        )
        out = out_tiles.transpose(0, 1, 2, 4, 3, 5).reshape(b_, p.no, 2 * th, 2 * tw)
        return np.ascontiguousarray(out[:, :, : p.ro, : p.co])


def make_lowered_plan(
    algorithm: str,
    params: ConvParams,
    spec: SW26010Spec = DEFAULT_SPEC,
    blocking: Optional[GemmBlocking] = None,
    register_blocking: RegisterBlocking = PAPER_REGISTER_BLOCKING,
) -> LoweredConvPlan:
    """Construct a lowered plan by algorithm name."""
    if algorithm == "im2col":
        cls = Im2colPlan
    elif algorithm == "winograd":
        cls = WinogradPlan
    else:
        raise PlanError(f"unknown lowered algorithm {algorithm!r}")
    return cls(
        params, blocking=blocking, register_blocking=register_blocking, spec=spec
    )


def engine_for_plan(
    plan: Union[ConvPlan, LoweredConvPlan],
    spec: Optional[SW26010Spec] = None,
    backend: str = "numpy",
    stride_efficiency: float = DMA_STRIDE_EFFICIENCY,
    overlap_contention: float = OVERLAP_CONTENTION,
    fault_plan=None,
    fused_pool: int = 1,
    telemetry=None,
) -> Union[ConvolutionEngine, LoweredConvEngine]:
    """The execution engine for any plan family — the zoo's dispatch point.

    Direct plans get the full :class:`~repro.core.conv.ConvolutionEngine`
    (fault replanning, fused epilogues, filter packing); lowered plans get
    their GEMM-routed engine, which rejects the features its schedule
    cannot honor.
    """
    algorithm = getattr(plan, "algorithm", "direct")
    if algorithm == "direct":
        return ConvolutionEngine(
            plan,
            spec=spec,
            backend=backend,
            stride_efficiency=stride_efficiency,
            overlap_contention=overlap_contention,
            fault_plan=fault_plan,
            fused_pool=fused_pool,
            telemetry=telemetry,
        )
    if algorithm == "im2col":
        cls = Im2colEngine
    elif algorithm == "winograd":
        cls = WinogradEngine
    else:
        raise PlanError(f"no engine for algorithm {algorithm!r}")
    return cls(
        plan,
        spec=spec,
        backend=backend,
        stride_efficiency=stride_efficiency,
        overlap_contention=overlap_contention,
        fault_plan=fault_plan,
        fused_pool=fused_pool,
        telemetry=telemetry,
    )
