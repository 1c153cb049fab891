"""Seeded chaos sweeps: the Fig. 7 evaluation on a degraded machine.

A chaos sweep runs a (small) Fig. 7-style ``(Ni, No)`` grid with a
:class:`~repro.faults.plan.FaultPlan` active on every configuration:
derated/hung DMA, fenced CPEs, bus faults and LDM ECC events, plus —
optionally — an injected worker-process crash recovered by the parallel
runner's per-job retry.  Every configuration must come back with *correct
numerics* (guarded execution degrades through the fallback ladder instead
of aborting), and the merged fault ledger lists every injected event.

Determinism: per-configuration fault plans, probe data and the DMA staging
exercise all derive from the base seed and the configuration index, never
from pool scheduling — two sweeps with the same seed produce bit-identical
reports, serial or parallel.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import DMATimeoutError, ReproError
from repro.common.parallel import parallel_map
from repro.common.rng import derive_rng
from repro.common.schema import CHAOS_FLEET_SCHEMA, CHAOS_SERVE_SCHEMA
from repro.common.tables import TextTable
from repro.hw.chip import CoreGroup
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.core.params import ConvParams
from repro.core.planner import plan_convolution
from repro.core.reference import conv2d_reference
from repro.faults.plan import FaultEvent, FaultLedger, FaultPlan, FaultSpec


def default_chaos_configs() -> List[ConvParams]:
    """A miniature Fig. 7 grid: (Ni, No) sweep, fixed batch/output/filter."""
    return [
        ConvParams.from_output(ni=ni, no=no, ro=6, co=6, kr=3, kc=3, b=2)
        for ni in (16, 32)
        for no in (16, 32)
    ]


@dataclass(frozen=True)
class ChaosRow:
    """Outcome of one configuration of a chaos sweep."""

    index: int
    params: ConvParams
    backend_used: str
    degradations: Tuple[str, ...]
    fault_events: Tuple[FaultEvent, ...]
    max_abs_err: float
    numerics_ok: bool
    dma_retries: int
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.numerics_ok and not self.error


@dataclass
class ChaosReport:
    """All rows of one chaos sweep plus the merged fault ledger."""

    seed: int
    rows: List[ChaosRow]
    ledger: FaultLedger

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)

    @property
    def surviving(self) -> int:
        return sum(1 for row in self.rows if row.ok)

    def render(self) -> str:
        """Deterministic text report: per-config outcomes + fault ledger."""
        table = TextTable(
            ["#", "Ni", "No", "backend", "falls", "faults", "max|err|", "ok"],
            float_fmt="{:.2e}",
        )
        for row in self.rows:
            table.add_row(
                [
                    row.index,
                    row.params.ni,
                    row.params.no,
                    row.backend_used or "-",
                    len(row.degradations),
                    len(row.fault_events),
                    row.max_abs_err,
                    "yes" if row.ok else f"NO ({row.error[:30]})",
                ]
            )
        lines = [
            f"chaos sweep — seed {self.seed:#x}, "
            f"{self.surviving}/{len(self.rows)} configs survived",
            table.render(),
            "",
            self.ledger.render(),
        ]
        return "\n".join(lines)


def _staged_dma_exercise(
    params: ConvParams,
    spec: SW26010Spec,
    fault_plan: FaultPlan,
    x: np.ndarray,
    dma_retries: int,
) -> int:
    """Stage the input through a faulty DMA engine, retrying hung transfers.

    Models the load phase of a plan on the degraded CG: each batch image's
    first row block is DMA'd into LDM.  A :class:`DMATimeoutError` (already
    ledgered by the plan) is retried up to ``dma_retries`` times — the
    driver-level recovery a production run performs.  Returns the number of
    retries that were needed; raises only if a transfer times out on every
    attempt.
    """
    cg = CoreGroup(0, spec, fault_plan=fault_plan)
    cg.memory.register("chaos.x", x)
    # Stage through the first *healthy* CPE's LDM (mesh.cpe() would raise
    # CPEFaultError if (0, 0) happens to be fenced by this plan).
    healthy = next(cpe for cpe in cg.mesh if not cpe.fenced)
    buf = healthy.ldm.alloc("chaos.tile", (params.ci,))
    retries_used = 0
    for b in range(params.b):
        for attempt in range(dma_retries + 1):
            try:
                cg.dma.dma_get("chaos.x", (b, 0, 0), buf)
                break
            except DMATimeoutError:
                if attempt == dma_retries:
                    raise
                retries_used += 1
    return retries_used


def _chaos_row(
    job: Tuple[int, ConvParams],
    spec: SW26010Spec,
    fault_spec: FaultSpec,
    backend: str,
    dma_retries: int,
    crash_indices: Tuple[int, ...],
    crash_marker_dir: Optional[str],
) -> ChaosRow:
    """Worker: run one configuration on its derived degraded machine."""
    index, params = job
    if index in crash_indices and crash_marker_dir:
        # Injected worker crash: the first attempt for this configuration
        # dies; the marker file makes the parallel runner's retry succeed.
        marker = os.path.join(crash_marker_dir, f"crash-{index}")
        if not os.path.exists(marker):
            with open(marker, "w") as fh:
                fh.write("crashed\n")
            raise RuntimeError(f"injected worker crash on config {index}")
    fault_plan = FaultPlan(fault_spec.derive(index))
    data_rng = derive_rng(fault_spec.seed, "chaos.data", index)
    x = data_rng.standard_normal(params.input_shape)
    w = data_rng.standard_normal(params.filter_shape)
    try:
        retries_used = _staged_dma_exercise(params, spec, fault_plan, x, dma_retries)
        from repro.core.guarded import GuardedConvolutionEngine

        plan = plan_convolution(params, spec=spec).plan
        engine = GuardedConvolutionEngine(
            plan, spec=spec, backend=backend, fault_plan=fault_plan
        )
        out, _ = engine.run(x, w)
        reference = conv2d_reference(x, w)
        max_err = float(np.max(np.abs(out - reference))) if out.size else 0.0
        ok = bool(np.isfinite(out).all()) and bool(
            np.allclose(out, reference, rtol=1e-8, atol=1e-8)
        )
        return ChaosRow(
            index=index,
            params=params,
            backend_used=engine.last_outcome.backend_used,
            degradations=tuple(engine.last_outcome.degradations),
            fault_events=tuple(fault_plan.ledger.events),
            max_abs_err=max_err,
            numerics_ok=ok,
            dma_retries=retries_used,
        )
    except ReproError as exc:
        # A configuration the degraded machine genuinely cannot serve:
        # reported as a failed row, never as an aborted sweep.
        return ChaosRow(
            index=index,
            params=params,
            backend_used="",
            degradations=(),
            fault_events=tuple(fault_plan.ledger.events),
            max_abs_err=float("nan"),
            numerics_ok=False,
            dma_retries=0,
            error=f"{type(exc).__name__}: {exc}",
        )


def run_chaos_sweep(
    fault_spec: FaultSpec,
    configs: Optional[Sequence[ConvParams]] = None,
    spec: SW26010Spec = DEFAULT_SPEC,
    backend: str = "mesh-fast",
    jobs: int = 1,
    retries: int = 1,
    backoff: float = 0.0,
    timeout: Optional[float] = None,
    dma_retries: int = 3,
    crash_indices: Sequence[int] = (),
    crash_marker_dir: Optional[str] = None,
) -> ChaosReport:
    """Run a Fig. 7-style sweep with fault injection enabled everywhere.

    Each configuration gets a fault plan derived from ``fault_spec`` and
    its index (so results do not depend on worker scheduling), runs the
    staged-DMA exercise and the guarded convolution on its degraded
    machine, and reports its outcome plus the fault events it observed.
    ``crash_indices`` additionally kills the *worker process's first
    attempt* at those configurations (markers in ``crash_marker_dir``
    make retries succeed), exercising the pool's crash isolation.

    Returns a :class:`ChaosReport` whose merged ledger lists every
    injected event across the sweep; two calls with the same arguments
    produce bit-identical reports.
    """
    configs = list(configs) if configs is not None else default_chaos_configs()
    if crash_indices and not crash_marker_dir:
        raise ValueError("crash_indices requires crash_marker_dir")
    worker = partial(
        _chaos_row,
        spec=spec,
        fault_spec=fault_spec,
        backend=backend,
        dma_retries=dma_retries,
        crash_indices=tuple(crash_indices),
        crash_marker_dir=crash_marker_dir,
    )
    rows = parallel_map(
        worker,
        list(enumerate(configs)),
        jobs=jobs,
        retries=retries,
        backoff=backoff,
        timeout=timeout,
    )
    ledger = FaultLedger()
    for index in sorted(crash_indices):
        marker = os.path.join(crash_marker_dir, f"crash-{index}")  # type: ignore[arg-type]
        if os.path.exists(marker):
            ledger.record(
                "pool",
                "worker-crash",
                f"injected worker crash on config {index} (recovered by retry)",
            )
    for row in rows:
        ledger.extend(list(row.fault_events))
    return ChaosReport(seed=fault_spec.seed, rows=rows, ledger=ledger)


# ---------------------------------------------------------------------------
# Chaos serving: seeded fault plans replayed against a live server
# ---------------------------------------------------------------------------


def default_chaos_serve_faults(seed: int = 0xC0FFEE) -> FaultSpec:
    """The seeded dma+cpe fault plan the chaos-serve bench runs under.

    Aggressive on purpose: nearly half of all staged batch DMAs hang and
    two CPEs are fenced, so a run exercises retry, hedging, quarantine,
    *and* a full breaker open -> half-open -> closed cycle.
    """
    return FaultSpec(seed=seed, dma_timeout_rate=0.45, num_random_fenced=2)


@dataclass
class ChaosServeReport:
    """Outcome of one chaos-serve run (JSON-ready via :meth:`as_dict`).

    ``availability`` counts every request that got an *answer* — a served
    result or an explicit typed rejection (shed, queue-full, deadline) —
    over the offered load; untyped errors and unanswered futures count
    against it.  ``wrong_answers`` counts served responses that were not
    bit-identical to the fault-free sequential reference; the whole layer
    exists to keep this at zero.
    """

    seed: int
    offered: int
    completed: int
    shed: int
    rejected: int
    deadline_misses: int
    errors: int
    wrong_answers: int
    availability: float
    breaker_transitions: List[str]
    breaker_opened: int
    breaker_half_opened: int
    breaker_closed: int
    retries: int
    hedges: int
    demotions: Dict[str, int] = field(default_factory=dict)
    fault_events: Dict[str, int] = field(default_factory=dict)
    p50_ms_fault: float = 0.0
    p99_ms_fault: float = 0.0
    p50_ms_clean: float = 0.0
    p99_ms_clean: float = 0.0
    counters_balanced: bool = True

    @property
    def zero_wrong_answers(self) -> bool:
        return self.wrong_answers == 0

    @property
    def anomalous(self) -> bool:
        """Did the run break the resilience contract?

        Wrong answers, untyped errors, or unbalanced counters — the
        conditions under which :func:`run_chaos_serve` auto-dumps the
        flight ring so the failure is explainable post-hoc.
        """
        return (
            self.wrong_answers > 0
            or self.errors > 0
            or not self.counters_balanced
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": CHAOS_SERVE_SCHEMA,
            "seed": self.seed,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "rejected": self.rejected,
            "deadline_misses": self.deadline_misses,
            "errors": self.errors,
            "wrong_answers": self.wrong_answers,
            "availability": self.availability,
            "breaker_transitions": list(self.breaker_transitions),
            "breaker_opened": self.breaker_opened,
            "breaker_half_opened": self.breaker_half_opened,
            "breaker_closed": self.breaker_closed,
            "retries": self.retries,
            "hedges": self.hedges,
            "demotions": dict(self.demotions),
            "fault_events": dict(self.fault_events),
            "p50_ms_fault": self.p50_ms_fault,
            "p99_ms_fault": self.p99_ms_fault,
            "p50_ms_clean": self.p50_ms_clean,
            "p99_ms_clean": self.p99_ms_clean,
            "counters_balanced": self.counters_balanced,
        }

    def render(self) -> str:
        answered = self.completed + self.shed + self.rejected + self.deadline_misses
        lines = [
            f"chaos serve — seed {self.seed:#x}",
            f"  offered {self.offered}: {self.completed} served, "
            f"{self.shed} shed, {self.rejected} queue-full, "
            f"{self.deadline_misses} deadline misses, {self.errors} errors",
            f"  availability {self.availability * 100:.2f}% "
            f"({answered}/{self.offered} answered)",
            f"  wrong answers: {self.wrong_answers} "
            f"(parity vs fault-free reference, bit-identical)",
            f"  breaker: {self.breaker_opened} opened, "
            f"{self.breaker_half_opened} half-opened, "
            f"{self.breaker_closed} closed "
            f"[{' -> '.join(self.breaker_transitions) or 'no transitions'}]",
            f"  recovery: {self.retries} batch retries, {self.hedges} hedged "
            f"re-executions, demotions {self.demotions or '{}'}",
            f"  p99 {self.p99_ms_fault:.2f} ms under faults vs "
            f"{self.p99_ms_clean:.2f} ms clean "
            f"(p50 {self.p50_ms_fault:.2f} vs {self.p50_ms_clean:.2f})",
            f"  fault events: {self.fault_events or '{}'}",
            f"  counters balanced: {'yes' if self.counters_balanced else 'NO'}",
        ]
        return "\n".join(lines)


def run_chaos_serve(
    fault_spec: Optional[FaultSpec] = None,
    n_requests: int = 96,
    rate_rps: float = 2000.0,
    ni: int = 8,
    no: int = 8,
    image: int = 12,
    k: int = 3,
    max_batch: int = 8,
    max_wait_s: float = 0.001,
    queue_depth: int = 64,
    high_water: Optional[int] = 48,
    workers: int = 1,
    deadline_s: Optional[float] = None,
    breaker=None,
    max_retries: int = 2,
    retry_backoff_s: float = 0.0005,
    result_timeout_s: float = 60.0,
    flight_dump_path: Optional[str] = None,
) -> ChaosServeReport:
    """Replay a seeded fault plan against a live server; audit every answer.

    Three phases on identical workload (same weights, images, and arrival
    offsets): a clean run (no fault plan) for the latency baseline, a
    fault-free sequential run for the bit-exact parity reference, and the
    chaos run with the fault plan staged into the pool.  The report proves
    the resilience contract: availability from typed answers, zero wrong
    answers, and the breaker/demotion/retry taxonomy of how the server
    survived.

    The chaos phase runs with a full telemetry session, so the returned
    report additionally carries ``.telemetry`` (counters + metrics) and
    ``.flight`` (the causal event ring — ``flight.explain(request_id)``
    reconstructs why any shed/retried/hedged request fared as it did).
    With ``flight_dump_path`` set, an *anomalous* run (see
    :attr:`ChaosServeReport.anomalous`) dumps the ring there
    automatically; ``.flight_dump`` records the written path or None.
    """
    from repro.serve import (
        BreakerPolicy,
        InferenceServer,
        ServedModel,
        ServerConfig,
        WarmEnginePool,
        poisson_arrivals,
        run_load,
        run_sequential,
        synthetic_images,
    )
    from repro.telemetry import Telemetry, use_telemetry

    fault_spec = fault_spec or default_chaos_serve_faults()
    seed = fault_spec.seed
    rng = derive_rng(seed, "chaos.serve.weights")
    scale = np.sqrt(2.0 / (ni * k * k))
    w = rng.standard_normal((no, ni, k, k)) * scale
    bias = rng.standard_normal(no) * 0.1
    model = ServedModel.conv(
        w, (image, image), bias=bias, activation="relu", name="chaos-serve"
    )
    images = synthetic_images(n_requests, model.input_shape, seed=seed + 1)
    arrivals = poisson_arrivals(n_requests, rate_rps, seed=seed + 2)
    policy = breaker or BreakerPolicy(
        window=12,
        failure_threshold=0.4,
        min_samples=6,
        cooldown_s=0.01,
        probe_fraction=0.5,
        close_after=2,
        seed=seed,
    )

    def config(fault_plan) -> ServerConfig:
        return ServerConfig(
            max_batch=max_batch,
            max_wait_s=max_wait_s,
            queue_depth=queue_depth,
            workers=workers,
            guarded=True,
            autotune=False,
            default_deadline_s=deadline_s,
            fault_plan=fault_plan,
            breaker=policy,
            max_retries=max_retries,
            retry_backoff_s=retry_backoff_s,
            high_water=high_water,
        )

    # Phase 1: clean latency baseline — identical config, no fault plan.
    clean_tel = Telemetry()
    with use_telemetry(clean_tel):
        clean_server = InferenceServer(model, config(None), telemetry=clean_tel)
        with clean_server:
            clean_report, _ = run_load(
                clean_server,
                images,
                rate_rps=rate_rps,
                arrivals=arrivals,
                result_timeout_s=result_timeout_s,
            )

    # Phase 2: fault-free sequential run — the bit-exact parity reference
    # (same heuristic plan family as the server pool, so outputs match
    # the batched path bit for bit).
    ref_tel = Telemetry()
    with use_telemetry(ref_tel):
        ref_pool = WarmEnginePool(
            model,
            max_batch=max_batch,
            guarded=True,
            autotune=False,
            telemetry=ref_tel,
        )
        _, ref_outputs = run_sequential(ref_pool, images)

    # Phase 3: the chaos run.
    telemetry = Telemetry()
    fault_plan = FaultPlan(fault_spec)
    with use_telemetry(telemetry):
        server = InferenceServer(model, config(fault_plan), telemetry=telemetry)
        with server:
            report, outputs = run_load(
                server,
                images,
                rate_rps=rate_rps,
                arrivals=arrivals,
                result_timeout_s=result_timeout_s,
            )
        balanced = server.counters_balanced()
        transitions = (
            [label for _, label in server.breaker.transitions]
            if server.breaker is not None
            else []
        )

    wrong = sum(
        1
        for i, out in enumerate(outputs)
        if out is not None and not np.array_equal(out, ref_outputs[i])
    )
    answered = (
        report.completed + report.shed + report.rejected + report.deadline_misses
    )
    counters = telemetry.counters
    demotions = {
        key: int(counters.get(f"serve.demotions.{key}"))
        for key in ("degraded", "quarantined", "rebuilt", "safe_runs")
        if counters.get(f"serve.demotions.{key}")
    }
    result = ChaosServeReport(
        seed=seed,
        offered=report.offered,
        completed=report.completed,
        shed=report.shed,
        rejected=report.rejected,
        deadline_misses=report.deadline_misses,
        errors=report.errors,
        wrong_answers=wrong,
        availability=answered / report.offered if report.offered else 0.0,
        breaker_transitions=transitions,
        breaker_opened=int(counters.get("serve.breaker.opened")),
        breaker_half_opened=int(counters.get("serve.breaker.half_opened")),
        breaker_closed=int(counters.get("serve.breaker.closed")),
        retries=int(counters.get("serve.retries")),
        hedges=int(counters.get("serve.hedges")),
        demotions=demotions,
        fault_events=fault_plan.ledger.counts(),
        p50_ms_fault=report.latency.p50_ms,
        p99_ms_fault=report.latency.p99_ms,
        p50_ms_clean=clean_report.latency.p50_ms,
        p99_ms_clean=clean_report.latency.p99_ms,
        counters_balanced=balanced,
    )
    # Audit surface: the chaos phase's session rides along on the report
    # (instance attributes, not dataclass fields — as_dict() and the bench
    # schema are unchanged).
    result.telemetry = telemetry
    result.flight = telemetry.flight
    result.flight_dump = None
    if flight_dump_path is not None and result.anomalous:
        result.flight_dump = telemetry.flight.dump(flight_dump_path)
    return result


# ---------------------------------------------------------------------------
# Chaos fleet: chip loss mid-run against a live multi-chip fleet
# ---------------------------------------------------------------------------


@dataclass
class ChaosFleetReport:
    """Outcome of one chaos-fleet run (JSON-ready via :meth:`as_dict`).

    The contract under chip loss mirrors the single-server chaos contract:
    every request gets a served answer or an explicit typed rejection,
    every served answer is bit-identical to the fault-free sequential
    reference, and the fleet's front-door counters still balance.
    ``failovers`` counts requests whose home chip was dead at routing time
    and that the router re-homed — the route-around the harness exists to
    exercise.
    """

    seed: int
    chips: int
    killed_chip: int
    kill_at: int
    offered: int
    completed: int
    shed: int
    rejected: int
    deadline_misses: int
    errors: int
    wrong_answers: int
    availability: float
    failovers: int
    chip_deaths: int
    counters_balanced: bool
    chip_states: Dict[int, str] = field(default_factory=dict)
    routing: Dict[str, Any] = field(default_factory=dict)

    @property
    def zero_wrong_answers(self) -> bool:
        return self.wrong_answers == 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": CHAOS_FLEET_SCHEMA,
            "seed": self.seed,
            "chips": self.chips,
            "killed_chip": self.killed_chip,
            "kill_at": self.kill_at,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "rejected": self.rejected,
            "deadline_misses": self.deadline_misses,
            "errors": self.errors,
            "wrong_answers": self.wrong_answers,
            "availability": self.availability,
            "failovers": self.failovers,
            "chip_deaths": self.chip_deaths,
            "counters_balanced": self.counters_balanced,
            "chip_states": {str(k): v for k, v in self.chip_states.items()},
            "routing": dict(self.routing),
        }

    def render(self) -> str:
        answered = (
            self.completed + self.shed + self.rejected + self.deadline_misses
        )
        return "\n".join(
            [
                f"chaos fleet — seed {self.seed:#x}, {self.chips} chips, "
                f"chip {self.killed_chip} killed at request {self.kill_at}",
                f"  offered {self.offered}: {self.completed} served, "
                f"{self.shed} shed, {self.rejected} rejected, "
                f"{self.deadline_misses} deadline misses, "
                f"{self.errors} errors",
                f"  availability {self.availability * 100:.2f}% "
                f"({answered}/{self.offered} answered)",
                f"  wrong answers: {self.wrong_answers} "
                f"(parity vs fault-free sequential reference)",
                f"  route-around: {self.failovers} failovers, "
                f"{self.chip_deaths} chip death(s)",
                f"  chip states: {self.chip_states}",
                f"  counters balanced: "
                f"{'yes' if self.counters_balanced else 'NO'}",
            ]
        )


def run_chaos_fleet(
    chips: int = 3,
    n_requests: int = 60,
    rate_rps: float = 600.0,
    seed: int = 0xF1EE7,
    kill_fraction: float = 0.4,
    max_batch: int = 4,
    result_timeout_s: float = 60.0,
) -> ChaosFleetReport:
    """Kill a home chip mid-run and audit the fleet's route-around.

    Builds a small multi-model catalog, pre-homes it across ``chips``
    simulated chips, replays a seeded bursty trace, and at request
    ``kill_fraction * n_requests`` kills the chip that homes the *most
    popular* shape (the worst-case victim for the affinity router).  The
    fleet must answer every remaining request by failing over — the report
    records the failover count, a bit-exact parity audit of every served
    answer against fault-free sequential references, and the front-door
    counter balance.  Deterministic placements and workload per ``seed``
    (wall-clock batching makes batch *composition* timing-dependent, but
    batch-invariant plans keep every answer bit-identical regardless).
    """
    from repro.common.errors import (
        DeadlineExceededError,
        QueueFullError,
        ServerClosedError,
        ShedError,
    )
    from repro.serve import (
        FleetConfig,
        FleetServer,
        ServedModel,
        WarmEnginePool,
        fleet_workload,
        run_sequential,
        synthetic_images,
    )
    from repro.telemetry import Telemetry, use_telemetry

    if chips < 2:
        raise ValueError(f"chaos fleet needs >= 2 chips, got {chips}")
    rng = derive_rng(seed, "chaos.fleet.weights")
    models: Dict[str, Any] = {}
    images: Dict[str, Any] = {}
    for i, (ni, no, image) in enumerate(((4, 4, 8), (4, 6, 8), (6, 4, 10))):
        scale = np.sqrt(2.0 / (ni * 9))
        w = rng.standard_normal((no, ni, 3, 3)) * scale
        name = f"chaos-fleet-{i}"
        model = ServedModel.conv(w, (image, image), name=name)
        models[name] = model
        images[name] = synthetic_images(4, model.input_shape, seed=seed + i)
    names = sorted(models)

    # Fault-free sequential parity references, one pool per shape (same
    # batch-invariant plan family as the fleet's warm pools, so served
    # answers must match bit for bit).
    references: Dict[str, List[np.ndarray]] = {}
    for name in names:
        ref_tel = Telemetry()
        with use_telemetry(ref_tel):
            pool = WarmEnginePool(
                models[name],
                max_batch=max_batch,
                guarded=True,
                autotune=False,
                telemetry=ref_tel,
            )
            _, ref_outputs = run_sequential(pool, images[name])
        references[name] = ref_outputs

    workload = fleet_workload(
        names, n_requests, rate_rps, pattern="bursty", seed=seed,
        images_per_model=4,
    )
    kill_at = max(1, int(n_requests * kill_fraction))
    telemetry = Telemetry()
    with use_telemetry(telemetry):
        fleet = FleetServer(
            models,
            FleetConfig(chips=chips, max_batch=max_batch, seed=seed),
            telemetry=telemetry,
        )
        with fleet:
            fleet.prewarm()
            # The most popular shape's home: killing it forces failover on
            # the largest share of the remaining trace.
            victim = fleet.router.homes[names[0]]
            submitted = []
            shed = rejected = 0
            t0 = time.perf_counter()
            for i, spec in enumerate(workload):
                if i == kill_at:
                    fleet.kill_chip(victim, reason="chaos")
                delay = t0 + spec.offset_s - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                try:
                    submitted.append(
                        (
                            spec,
                            fleet.submit(
                                images[spec.model][spec.image_index],
                                model=spec.model,
                                slo=spec.slo,
                            ),
                        )
                    )
                except ShedError:
                    shed += 1
                    submitted.append((spec, None))
                except (QueueFullError, ServerClosedError):
                    rejected += 1
                    submitted.append((spec, None))
            completed = misses = errors = wrong = 0
            for spec, req in submitted:
                if req is None:
                    continue
                try:
                    out = req.result(timeout=result_timeout_s)
                except DeadlineExceededError:
                    misses += 1
                    continue
                except (ShedError, ServerClosedError):
                    # Typed rejections: shed under brownout, or queued on
                    # the victim when it died.
                    shed += 1
                    continue
                except ReproError:
                    errors += 1
                    continue
                completed += 1
                if not np.array_equal(
                    out, references[spec.model][spec.image_index]
                ):
                    wrong += 1
            balanced = fleet.counters_balanced()
            stats = fleet.affinity_stats()
            states = fleet.chip_states()
        deaths = int(telemetry.counters.get("serve.fleet.chip_deaths"))
    answered = completed + shed + rejected + misses
    report = ChaosFleetReport(
        seed=seed,
        chips=chips,
        killed_chip=victim,
        kill_at=kill_at,
        offered=len(workload),
        completed=completed,
        shed=shed,
        rejected=rejected,
        deadline_misses=misses,
        errors=errors,
        wrong_answers=wrong,
        availability=answered / len(workload) if workload else 0.0,
        failovers=int(stats["failover"]),
        chip_deaths=deaths,
        counters_balanced=balanced,
        chip_states=states,
        routing=stats,
    )
    report.telemetry = telemetry
    report.flight = telemetry.flight
    return report
