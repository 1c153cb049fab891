"""Warm engine pools: pre-planned, pre-tuned, pre-packed per batch size.

A serving worker must never plan, tune, certify, or pack in the request
path — those costs belong to server start.  The pool therefore builds one
engine per coalesced batch size ``1..max_batch`` up front: the plan comes
from the autotuner (cache-backed, so a restarted server is a pure
plan-cache hit), filters are packed into the engines' memoized contiguous
layout, and — in guarded mode — the fallback ladder wraps each engine so a
degraded machine sheds tiers instead of requests.

Plans are restricted to the **image-size-aware family** by default: its
tile count is batch-invariant (the batch dimension folds into the tile's
``bB`` extent), so a batch of 16 walks the same number of tiles as a batch
of 1 and coalescing amortizes the whole schedule.  Batch-size-aware plans
scale their tile count with the batch and gain almost nothing from
coalescing — exactly the wrong family for a batcher.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import ReproError, ServeError
from repro.common.rng import derive_rng
from repro.core.conv import ConvolutionEngine
from repro.core.params import ConvParams
from repro.core.sharding import ShardedExecutor
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.serve.health import EngineHealth, QUARANTINED
from repro.serve.model import ServedModel
from repro.telemetry import current_telemetry, use_telemetry

#: plan_family knob -> the autotuner ``families`` restriction it means.
PLAN_FAMILIES: Dict[str, Optional[Tuple[str, ...]]] = {
    "image": ("image-size-aware",),
    "batch": ("batch-size-aware",),
    "any": None,
}

#: Filter-layout version served by a pool: weights are frozen, so the
#: engines' memoized packs are built once at warm-up and never invalidate.
FROZEN_FILTER_VERSION = 0


class WarmEnginePool:
    """One ready engine per batch size, built before traffic arrives."""

    def __init__(
        self,
        model: ServedModel,
        max_batch: int = 8,
        spec: SW26010Spec = DEFAULT_SPEC,
        backend: str = "numpy",
        guarded: bool = True,
        autotune: bool = True,
        plan_cache: Union[None, bool, str, object] = False,
        plan_family: str = "image",
        batch_shards: int = 1,
        telemetry=None,
        fault_plan=None,
        quarantine_after: int = 3,
    ):
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}")
        if plan_family not in PLAN_FAMILIES:
            raise ServeError(
                f"unknown plan_family {plan_family!r}; "
                f"expected one of {tuple(PLAN_FAMILIES)}"
            )
        if batch_shards < 1:
            raise ServeError(f"batch_shards must be >= 1, got {batch_shards}")
        if batch_shards > 1 and guarded:
            # Mirrors SwDNNHandle: the sharded path has no fallback ladder.
            raise ServeError("batch sharding is not available in guarded mode")
        if fault_plan is not None and (model.kind != "conv" or batch_shards > 1):
            raise ServeError(
                "serve-time fault injection is available for unsharded conv "
                "models only (the staged exercise and safe spares target the "
                "single-engine conv path)"
            )
        self.model = model
        self.max_batch = max_batch
        self.spec = spec
        self.backend = backend
        self.guarded = guarded
        self.autotune = autotune
        self.plan_cache = plan_cache
        self.plan_family = plan_family
        self.families = PLAN_FAMILIES[plan_family]
        self.batch_shards = batch_shards
        self.telemetry = telemetry if telemetry is not None else current_telemetry()
        self.fault_plan = fault_plan
        #: Health state per batch size; quarantined sizes route to spares.
        self.health = EngineHealth(
            quarantine_after=quarantine_after, telemetry=self.telemetry
        )
        self._engines: Dict[int, object] = {}
        #: Safe spares: same plan, plain numpy engine, no fault plan — the
        #: hedge/quarantine target whose outputs are bit-identical to the
        #: primary engine's healthy path.
        self._safe_engines: Dict[int, object] = {}
        self._engine_lock = threading.Lock()
        self._rebuilds: Dict[int, threading.Thread] = {}
        # Serve-time chaos injects at the pool (the numpy engine tier never
        # touches the simulated machine): each batch stages one seeded CPE
        # liveness check and one DMA descriptor before the engine runs.
        self._stage_rng = (
            derive_rng(fault_plan.spec.seed, "serve.stage")
            if fault_plan is not None
            else None
        )
        self._stage_lock = threading.Lock()
        self._sharded: Optional[ShardedExecutor] = None
        if batch_shards > 1:
            if model.kind != "conv":
                raise ServeError("batch sharding serves conv models only")
            # The sharded executor plans per shard shape itself; families
            # restriction does not apply on this path (its sub-batches are
            # small enough that the planner's choice is already right).
            self._sharded = ShardedExecutor(
                num_groups=batch_shards,
                spec=spec,
                backend=backend,
                plan_cache=self._shard_cache(),
                telemetry=self.telemetry,
            )

    def _shard_cache(self):
        """ShardedExecutor tunes when given a cache, plans heuristically on None."""
        if not self.autotune:
            return None
        return self.plan_cache if self.plan_cache is not False else False

    # -- planning ----------------------------------------------------------

    def _params(self, b: int) -> ConvParams:
        assert self.model.w is not None
        c, h, w = self.model.input_shape
        no, ni, kr, kc = self.model.w.shape
        return ConvParams(ni=ni, no=no, ri=h, ci=w, kr=kr, kc=kc, b=b)

    def _plan(self, params: ConvParams):
        if self.autotune:
            from repro.tune import autotune

            # The tuner and plan cache report to the *ambient* session;
            # install the pool's so warm-up measurements/hits are visible
            # to the server's telemetry.  Warm-up only — steady state
            # never reaches this method.
            with use_telemetry(
                self.telemetry if self.telemetry.enabled else None
            ):
                return autotune(
                    params,
                    spec=self.spec,
                    backend=self.backend,
                    cache=self.plan_cache,
                    families=self.families,
                ).plan
        # Heuristic path: the family restriction still applies.  Left to
        # itself the planner flips to batch-size-aware around b=8, whose
        # tile count scales with the batch — the one schedule shape that
        # gains nothing from coalescing (and whose accumulation pattern
        # breaks bit-identity with the single-image run).
        if self.plan_family == "image":
            from repro.core.plans import ImageSizeAwarePlan

            return ImageSizeAwarePlan(params, spec=self.spec)
        if self.plan_family == "batch":
            from repro.core.plans import BatchSizeAwarePlan

            return BatchSizeAwarePlan(params, spec=self.spec)
        from repro.core.planner import plan_convolution

        return plan_convolution(params, spec=self.spec).plan

    def _build_engine(self, b: int, plan=None):
        """Construct, wrap (guarded), and prepack one engine for size ``b``."""
        if plan is None:
            plan = self._plan(self._params(b))
        if self.guarded:
            from repro.core.guarded import GuardedConvolutionEngine

            engine = GuardedConvolutionEngine(
                plan,
                spec=self.spec,
                backend=self.backend,
                fault_plan=self.fault_plan,
                telemetry=self.telemetry,
            )
        else:
            engine = ConvolutionEngine(
                plan,
                spec=self.spec,
                backend=self.backend,
                telemetry=self.telemetry,
            )
        assert self.model.w is not None
        engine.prepack_filters(self.model.w, version=FROZEN_FILTER_VERSION)
        return engine

    def _engine_for(self, b: int):
        with self._engine_lock:
            engine = self._engines.get(b)
        if engine is None:
            engine = self._build_engine(b)
            with self._engine_lock:
                self._engines[b] = engine
            self.telemetry.counters.add("serve.pool.engines")
        return engine

    def _safe_engine_for(self, b: int):
        """The safe spare for size ``b``: plain numpy, no fault plan.

        Reuses the primary engine's plan, so its accumulation order — and
        therefore its output bits — match the primary's healthy path
        exactly.  Built lazily on first hedge/quarantine routing.
        """
        with self._engine_lock:
            engine = self._safe_engines.get(b)
        if engine is None:
            primary = self._engine_for(b)
            engine = ConvolutionEngine(
                primary.plan,
                spec=self.spec,
                backend="numpy",
                telemetry=self.telemetry,
            )
            assert self.model.w is not None
            engine.prepack_filters(self.model.w, version=FROZEN_FILTER_VERSION)
            with self._engine_lock:
                self._safe_engines[b] = engine
            self.telemetry.counters.add("serve.pool.safe_engines")
        return engine

    # -- fault staging and health ------------------------------------------

    def _stage_faults(self, xb: np.ndarray) -> None:
        """Exercise the fault plan once per batch (chaos serving only).

        Stages one CPE liveness check at a seeded mesh coordinate and one
        DMA get descriptor sized to the batch — the serve-path analogue of
        the chaos sweep's staged exercise, deterministic per (seed, draw
        sequence) so a chaos run replays bit-identically.
        """
        assert self.fault_plan is not None and self._stage_rng is not None
        mesh = self.spec.mesh_size
        with self._stage_lock:
            r = int(self._stage_rng.integers(mesh))
            c = int(self._stage_rng.integers(mesh))
        self.fault_plan.check_cpe((r, c), mesh, "stage a serve batch")
        self.fault_plan.maybe_dma_timeout(int(xb.nbytes), "get", "serve.batch")

    def _note_failure(self, b: int) -> None:
        if self.health.strike(b) == QUARANTINED:
            self._start_rebuild(b)

    def _start_rebuild(self, b: int) -> None:
        """Kick off a background replan/rebuild of quarantined engine ``b``."""
        with self._engine_lock:
            existing = self._rebuilds.get(b)
            if existing is not None and existing.is_alive():
                return
            thread = threading.Thread(
                target=self._rebuild, args=(b,), name=f"serve-rebuild-{b}",
                daemon=True,
            )
            self._rebuilds[b] = thread
        thread.start()

    def _rebuild(self, b: int) -> None:
        """Replan + rebuild + repack engine ``b``; swap it in healthy.

        Runs on a daemon thread so quarantine never blocks the serving
        path — until the swap, requests for ``b`` route to the safe spare.
        """
        try:
            engine = self._build_engine(b)
        except ReproError:
            # The machine is too degraded to replan right now; stay
            # quarantined (safe spare keeps serving) and let the next
            # quarantine transition try again.
            self.telemetry.counters.add("serve.demotions.rebuild_failed")
            return
        with self._engine_lock:
            self._engines[b] = engine
        self.health.reset(b)
        self.telemetry.counters.add("serve.demotions.rebuilt")

    def await_rebuilds(self, timeout: float = 10.0) -> None:
        """Join any in-flight rebuild threads (tests and shutdown)."""
        with self._engine_lock:
            threads = list(self._rebuilds.values())
        for thread in threads:
            thread.join(timeout)

    # -- public surface ----------------------------------------------------

    def warm(self, batch_sizes: Optional[Sequence[int]] = None) -> int:
        """Build every engine the batcher can ask for; returns how many.

        After this, steady-state requests plan nothing, tune nothing, and
        pack nothing — the warm-cache regression test asserts the
        ``tune.measurements`` counter stays flat across requests.
        """
        sizes = (
            sorted(set(int(b) for b in batch_sizes))
            if batch_sizes is not None
            else range(1, self.max_batch + 1)
        )
        if self.model.kind == "network":
            assert self.model.net is not None
            self.model.net.warm(self.model.input_shape, list(sizes))
            return len(list(sizes))
        built = 0
        for b in sizes:
            if not 1 <= b <= self.max_batch:
                raise ServeError(
                    f"batch size {b} outside pool range [1, {self.max_batch}]"
                )
            if self._sharded is not None:
                built += self._sharded.warm(self._params(b), self.model.w)
            else:
                self._engine_for(b)
                built += 1
        return built

    def run_batch(self, xb: np.ndarray, safe: bool = False) -> np.ndarray:
        """Execute one coalesced batch on the warm engine for its size.

        The output is bit-identical to running each image alone: the
        image-size-aware schedule accumulates every output element over
        the same (ni, kr, kc) order regardless of the batch extent.

        ``safe=True`` routes to the safe spare (same plan, plain numpy
        engine, no fault plan) — the hedged-execution path, bit-identical
        to the primary's healthy output.  A quarantined batch size routes
        there automatically until its background rebuild lands.
        """
        b = int(xb.shape[0])
        if not 1 <= b <= self.max_batch:
            raise ServeError(
                f"batch size {b} outside pool range [1, {self.max_batch}]"
            )
        if self.model.kind == "network":
            assert self.model.net is not None
            return self.model.net.forward(xb)
        if self._sharded is not None:
            out, _ = self._sharded.run(
                xb,
                self.model.w,
                bias=self.model.bias,
                activation=self.model.activation,
                filter_version=FROZEN_FILTER_VERSION,
            )
        elif safe or self.health.quarantined(b):
            if not safe:
                self.telemetry.counters.add("serve.demotions.safe_runs")
            out, _ = self._safe_engine_for(b).run(
                xb,
                self.model.w,
                bias=self.model.bias,
                activation=self.model.activation,
                filter_version=FROZEN_FILTER_VERSION,
            )
        else:
            engine = self._engine_for(b)
            try:
                if self.fault_plan is not None:
                    self._stage_faults(xb)
                out, _ = engine.run(
                    xb,
                    self.model.w,
                    bias=self.model.bias,
                    activation=self.model.activation,
                    filter_version=FROZEN_FILTER_VERSION,
                )
            except ReproError:
                self._note_failure(b)
                raise
            outcome = getattr(engine, "last_outcome", None)
            if outcome is not None and outcome.degraded:
                # Correct answer, degraded machine: the guarded ladder
                # demoted tiers to get here — strike the engine so a
                # persistently degraded size gets replanned off-path.
                self._note_failure(b)
            else:
                self.health.success(b)
        if self.model.pool > 1:
            s = self.model.pool
            b_, c_, h_, w_ = out.shape
            if h_ % s != 0 or w_ % s != 0:
                raise ServeError(f"pooling {s}x{s} does not divide {h_}x{w_}")
            out = out.reshape(b_, c_, h_ // s, s, w_ // s, s).mean(axis=(3, 5))
        return out
