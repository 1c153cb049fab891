"""The swDNN library handle: device context + plan cache + operations.

One :class:`SwDNNHandle` owns a simulated SW26010 device (its spec and, on
demand, mesh resources) and memoizes compiled plans, so repeated layer
invocations — the common case in training — skip planning.  All operations
return ``(result, TimingReport)`` like the engine they wrap.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.common.errors import LDMOverflowError, PlanError
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.telemetry import current_telemetry, use_telemetry
from repro.core.algorithms import engine_for_plan, resolve_algorithms
from repro.core.backward import BackwardConvolution
from repro.core.conv import BACKENDS, ConvolutionEngine, TimingReport
from repro.core.gemm_plan import GemmEngine, GemmParams, GemmPlan
from repro.core.params import ConvParams
from repro.core.plans import ConvPlan
from repro.api.algorithms import (
    AlgorithmPerf,
    ConvolutionFwdAlgo,
    _build,
    find_convolution_forward_algorithm,
)
from repro.api.descriptors import (
    ConvolutionDescriptor,
    FilterDescriptor,
    TensorDescriptor,
    resolve_conv_params,
)


class SwDNNHandle:
    """Library context: create once, run many layers through it.

    ``backend`` picks the execution tier for every operation: ``"numpy"``
    (vectorized reference), ``"mesh"`` (full register-communication
    simulation), or ``"mesh-fast"`` (bus protocol verified once per shape,
    then vectorized block-GEMM execution).  Engines are cached alongside
    plans, so with ``"mesh-fast"`` repeated layer invocations pay the full
    simulation only on their first batch.
    """

    def __init__(
        self,
        spec: SW26010Spec = DEFAULT_SPEC,
        backend: str = "numpy",
        fault_plan=None,
        guarded: bool = False,
        parity_check: bool = False,
        autotune: bool = False,
        plan_cache=None,
        fused: bool = False,
        batch_shards: Optional[int] = None,
        telemetry=None,
        algorithms=None,
    ):
        if backend not in BACKENDS:
            raise PlanError(
                f"unknown compute backend {backend!r}; expected one of {BACKENDS}"
            )
        self.spec = spec
        self.backend = backend
        #: Optional :class:`repro.faults.FaultPlan` degrading the device.
        self.fault_plan = fault_plan
        #: Guarded mode wraps every forward engine in the fallback ladder
        #: (mesh-fast -> mesh -> numpy -> reference) with NaN/Inf guards;
        #: it is implied whenever a fault plan is attached.
        self.guarded = guarded or fault_plan is not None
        self.parity_check = parity_check
        #: ``autotune=True`` replaces the AUTO-algorithm heuristic with the
        #: measured plan search of :mod:`repro.tune`.  ``plan_cache`` names
        #: its on-disk cache directory (a path, ``True`` for the default
        #: ``~/.cache/swdnn-repro`` location, or a PlanCache); setting it
        #: implies autotuning.  Without a plan cache the tune is in-process
        #: only (nothing is written to disk).
        self.autotune = autotune or plan_cache is not None
        self.plan_cache = plan_cache
        #: ``algorithms`` opts AUTO planning into the conv algorithm zoo
        #: (:mod:`repro.core.algorithms`): ``None`` keeps the direct
        #: mapping only (the status quo), ``"all"`` or a sequence lets the
        #: measured search pick im2col / Winograd per shape.  On a guarded
        #: or degraded handle a lowered plan still tunes and runs — the
        #: ladder prepends a ``lowered`` tier and demotes to the tuned
        #: direct engine when the zoo engine refuses the fault plan.
        self.algorithms = algorithms
        self._resolved_algorithms = resolve_algorithms(algorithms)
        #: ``fused=True`` lets ``convolution_forward(pool=s)`` run the
        #: ``s x s`` average pool inside the conv engine's LDM epilogue
        #: (pooled bytes only are DMA-put); unfused handles charge the pool
        #: as a separate full-tensor memory pass.
        self.fused = fused
        #: ``batch_shards=n`` splits every forward batch across ``n`` core
        #: groups executed concurrently (inference throughput mode).
        if batch_shards is not None and not 1 <= batch_shards <= spec.num_core_groups:
            raise PlanError(
                f"batch_shards must be in [1, {spec.num_core_groups}], "
                f"got {batch_shards}"
            )
        self.batch_shards = batch_shards
        #: Observability session shared by every engine this handle builds
        #: (see :mod:`repro.telemetry`); defaults to the ambient session,
        #: which is the shared null (disabled) one unless installed.
        self.telemetry = telemetry if telemetry is not None else current_telemetry()
        self._last_outcome = None
        self._plan_cache: Dict[Tuple, ConvPlan] = {}
        self._gemm_cache: Dict[GemmParams, GemmPlan] = {}
        self._engine_cache: Dict[Tuple, ConvolutionEngine] = {}
        self._backward_cache: Dict[ConvParams, BackwardConvolution] = {}
        self._gemm_engine_cache: Dict[GemmParams, GemmEngine] = {}

    def _tune_cache(self):
        """The ``cache`` argument for :func:`repro.tune.autotune`."""
        if self.plan_cache is None:
            return False  # tune in-process, persist nothing
        if self.plan_cache is True:
            return None  # the default on-disk location
        return self.plan_cache

    # -- planning -------------------------------------------------------------

    def find_algorithms(
        self,
        x_desc: TensorDescriptor,
        w_desc: FilterDescriptor,
        conv_desc: ConvolutionDescriptor = ConvolutionDescriptor(),
    ) -> list:
        """Ranked algorithm list (the cudnnFind analogue)."""
        params = resolve_conv_params(x_desc, w_desc, conv_desc)
        return find_convolution_forward_algorithm(params, spec=self.spec)

    def get_workspace_bytes(
        self,
        x_desc: TensorDescriptor,
        w_desc: FilterDescriptor,
        conv_desc: ConvolutionDescriptor = ConvolutionDescriptor(),
        algo: ConvolutionFwdAlgo = ConvolutionFwdAlgo.AUTO,
    ) -> int:
        """Per-CPE LDM footprint of the selected algorithm's plan."""
        params = resolve_conv_params(x_desc, w_desc, conv_desc)
        plan = self._plan_for(params, algo)
        return sum(nbytes for _, nbytes in plan.ldm_regions())

    def _plan_for(
        self,
        params: ConvParams,
        algo: ConvolutionFwdAlgo,
        fused_pool: int = 1,
    ) -> ConvPlan:
        key = (params, algo, fused_pool)
        plan = self._plan_cache.get(key)
        if plan is None:
            if algo is ConvolutionFwdAlgo.AUTO:
                if self.autotune:
                    from repro.tune import autotune

                    # A zoo-wide search tunes on the healthy machine (the
                    # tuner refuses fault plans for lowered candidates);
                    # degradation is handled at run time by the guarded
                    # ladder's lowered-tier demotion, not at plan time.
                    plan = autotune(
                        params,
                        spec=self.spec,
                        backend=self.backend,
                        cache=self._tune_cache(),
                        fault_plan=(
                            self.fault_plan
                            if self._resolved_algorithms == ("direct",)
                            else None
                        ),
                        fused_pool=fused_pool,
                        algorithms=self.algorithms,
                    ).plan
                else:
                    best: AlgorithmPerf = find_convolution_forward_algorithm(
                        params, spec=self.spec, requested=1
                    )[0]
                    plan = _build(best.algo, params, self.spec)
            else:
                plan = _build(algo, params, self.spec)
            self._plan_cache[key] = plan
        return plan

    def _engine_for(
        self, params: ConvParams, algo: ConvolutionFwdAlgo, fused_pool: int = 1
    ):
        key = (params, algo, fused_pool)
        engine = self._engine_cache.get(key)
        if engine is None:
            plan = self._plan_for(params, algo, fused_pool)
            if self.guarded:
                if fused_pool > 1:
                    raise PlanError(
                        "fused pooling is not available in guarded mode"
                    )
                from repro.core.guarded import GuardedConvolutionEngine

                direct_plan = None
                if getattr(plan, "algorithm", "direct") != "direct":
                    # Demotion target for the lowered tier: the *tuned*
                    # direct plan for this shape (fault-aware — the direct
                    # tuner replans around fenced CPEs).
                    direct_plan = self._direct_plan_for(params)
                engine = GuardedConvolutionEngine(
                    plan,
                    spec=self.spec,
                    backend=self.backend,
                    fault_plan=self.fault_plan,
                    parity_check=self.parity_check,
                    telemetry=self.telemetry,
                    direct_plan=direct_plan,
                )
            else:
                # Dispatches on the plan's algorithm: direct plans get the
                # ConvolutionEngine, lowered ones their zoo engine.
                engine = engine_for_plan(
                    plan,
                    spec=self.spec,
                    backend=self.backend,
                    fused_pool=fused_pool,
                    telemetry=self.telemetry,
                )
            self._engine_cache[key] = engine
        return engine

    def _direct_plan_for(self, params: ConvParams) -> ConvPlan:
        """The tuned (or heuristic) direct plan a lowered ladder demotes to."""
        if self.autotune:
            from repro.tune import autotune

            return autotune(
                params,
                spec=self.spec,
                backend=self.backend,
                cache=self._tune_cache(),
                fault_plan=self.fault_plan,
            ).plan
        from repro.core.planner import plan_convolution

        return plan_convolution(params, spec=self.spec).plan

    @property
    def last_outcome(self):
        """The most recent guarded forward's outcome, or ``None``.

        In guarded mode this reports which ladder tier produced the last
        ``convolution_forward`` result and any demotions taken; unguarded
        handles always return ``None``.
        """
        return self._last_outcome

    def _backward_for(self, params: ConvParams) -> BackwardConvolution:
        bwd = self._backward_cache.get(params)
        if bwd is None:
            bwd = BackwardConvolution(params, spec=self.spec, backend=self.backend)
            self._backward_cache[params] = bwd
        return bwd

    @property
    def cached_plans(self) -> int:
        return len(self._plan_cache)

    # -- operations ----------------------------------------------------------

    def convolution_forward(
        self,
        x: np.ndarray,
        w: np.ndarray,
        algo: ConvolutionFwdAlgo = ConvolutionFwdAlgo.AUTO,
        x_desc: Optional[TensorDescriptor] = None,
        w_desc: Optional[FilterDescriptor] = None,
        conv_desc: Optional[ConvolutionDescriptor] = None,
        bias: Optional[np.ndarray] = None,
        activation: Optional[str] = None,
        pool: int = 1,
    ) -> Tuple[np.ndarray, TimingReport]:
        """y = act(conv(pad(x), w) + bias) through the simulated device.

        ``conv_desc`` padding is applied by explicit-pad lowering;
        ``bias``/``activation`` run fused in the output tiles' epilogue
        (no extra memory traffic), mirroring cuDNN's fused convolutions.

        ``pool=s`` appends an ``s x s`` average pool: on a ``fused=True``
        handle it runs inside the engine's LDM epilogue (only pooled bytes
        are stored); otherwise it is applied after the conv with its
        full-tensor memory pass charged to the returned timing.
        """
        if pool < 1:
            raise PlanError(f"pool must be >= 1, got {pool}")
        x = np.asarray(x, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        if x_desc is not None:
            x_desc.matches(x)
        if w_desc is not None:
            w_desc.matches(w)
        if x.ndim != 4 or w.ndim != 4:
            raise PlanError("convolution_forward expects 4-D NCHW operands")
        # Eager validation: fail here with the offending field named, not
        # deep inside the planner.
        for name, extent in zip("nchw", x.shape):
            if extent < 1:
                raise PlanError(
                    f"input tensor dim {name!r} must be positive, got {extent}"
                )
        for name, extent in zip(("k", "c", "kh", "kw"), w.shape):
            if extent < 1:
                raise PlanError(
                    f"filter dim {name!r} must be positive, got {extent}"
                )
        if conv_desc is not None and conv_desc.has_padding:
            x = np.pad(
                x,
                (
                    (0, 0),
                    (0, 0),
                    (conv_desc.pad_h, conv_desc.pad_h),
                    (conv_desc.pad_w, conv_desc.pad_w),
                ),
            )
        if w.shape[2] > x.shape[2] or w.shape[3] > x.shape[3]:
            raise PlanError(
                f"output size would be <= 0: filter kh x kw = "
                f"{w.shape[2]}x{w.shape[3]} exceeds the (padded) input "
                f"h x w = {x.shape[2]}x{x.shape[3]}"
            )
        params = ConvParams(
            ni=x.shape[1],
            no=w.shape[0],
            ri=x.shape[2],
            ci=x.shape[3],
            kr=w.shape[2],
            kc=w.shape[3],
            b=x.shape[0],
        )
        if w.shape[1] != params.ni:
            raise PlanError(
                f"input has {params.ni} channels but the filter expects {w.shape[1]}"
            )
        fused_pool = pool if (pool > 1 and self.fused) else 1
        self.telemetry.counters.add("handle.calls")
        # Install the handle's session ambiently for the call so per-call
        # ambient consumers (plan-cache traffic, fault ledgers) report here.
        with use_telemetry(self.telemetry), self.telemetry.tracer.span(
            "handle.convolution_forward",
            cat="handle",
            params=repr(params),
            backend=self.backend,
        ):
            if self.batch_shards is not None and self.batch_shards > 1:
                if self.guarded:
                    raise PlanError(
                        "batch sharding is not available in guarded mode"
                    )
                from repro.core.sharding import run_sharded

                out, report = run_sharded(
                    x,
                    w,
                    num_groups=self.batch_shards,
                    spec=self.spec,
                    backend=self.backend,
                    bias=bias,
                    activation=activation,
                    plan_cache=self._tune_cache() if self.autotune else None,
                    fused_pool=fused_pool,
                    telemetry=self.telemetry,
                )
                self._last_outcome = None
            else:
                with self.telemetry.tracer.span(
                    "handle.plan", cat="handle", algo=algo.name
                ):
                    engine = None
                    if fused_pool > 1:
                        try:
                            engine = self._engine_for(params, algo, fused_pool)
                        except (PlanError, LDMOverflowError):
                            # No plan leaves room for the fused pool
                            # accumulator (or guarded mode forbids fusing):
                            # degrade to the unfused pool with its memory
                            # pass charged below.
                            fused_pool = 1
                    if engine is None:
                        engine = self._engine_for(params, algo)
                out, report = engine.run(x, w, bias=bias, activation=activation)
                self._last_outcome = getattr(engine, "last_outcome", None)
        if pool > 1 and fused_pool == 1:
            # Unfused pooling: a separate layer streaming the conv output
            # through LDM and back — charged as the extra MEM pass it is.
            from dataclasses import replace

            from repro.core.fusion import elementwise_pass_seconds

            s = pool
            b_, c_, h_, w_ = out.shape
            if h_ % s != 0 or w_ % s != 0:
                raise PlanError(f"pooling {s}x{s} does not divide {h_}x{w_}")
            out = out.reshape(b_, c_, h_ // s, s, w_ // s, s).mean(axis=(3, 5))
            out_bytes = b_ * c_ * h_ * w_ * self.spec.double_bytes
            extra = elementwise_pass_seconds(
                out_bytes, out_bytes // (s * s), self.spec
            )
            report = replace(report, seconds=report.seconds + extra)
        return out, report

    def convolution_backward_data(
        self, w: np.ndarray, grad_out: np.ndarray, x_desc: TensorDescriptor
    ) -> Tuple[np.ndarray, TimingReport]:
        """dL/dx for the layer described by ``x_desc`` and ``w``."""
        params = ConvParams(
            ni=x_desc.c,
            no=w.shape[0],
            ri=x_desc.h,
            ci=x_desc.w,
            kr=w.shape[2],
            kc=w.shape[3],
            b=x_desc.n,
        )
        return self._backward_for(params).grad_input(w, grad_out)

    def convolution_backward_filter(
        self, x: np.ndarray, grad_out: np.ndarray, w_desc: FilterDescriptor
    ) -> Tuple[np.ndarray, TimingReport]:
        """dL/dw for the layer described by ``x`` and ``w_desc``."""
        params = ConvParams(
            ni=x.shape[1],
            no=w_desc.k,
            ri=x.shape[2],
            ci=x.shape[3],
            kr=w_desc.kh,
            kc=w_desc.kw,
            b=x.shape[0],
        )
        return self._backward_for(params).grad_filter(x, grad_out)

    def gemm(self, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, TimingReport]:
        """Dense matmul (fully-connected layers) through swGEMM."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise PlanError(f"gemm shapes incompatible: {a.shape} @ {b.shape}")
        params = GemmParams(m=a.shape[0], n=b.shape[1], k=a.shape[1])
        engine = self._gemm_engine_cache.get(params)
        if engine is None:
            plan = self._gemm_cache.get(params)
            if plan is None:
                plan = GemmPlan(params, spec=self.spec)
                self._gemm_cache[params] = plan
            engine = GemmEngine(plan, backend=self.backend)
            self._gemm_engine_cache[params] = engine
        return engine.run(a, b)
