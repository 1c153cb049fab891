"""Multi-chip serving fleet: cache-affinity routing, SLO classes, autoscaling.

One simulated SW26010 chip caps serving throughput at one mesh and one
admission queue.  The fleet shards the warm-pool machinery across N chips
(:func:`repro.core.sharding.fleet_strips` names them) and puts a front
door in front:

* **Cache-affinity routing** — every served model (a layer shape) gets a
  *home* chip the first time it is seen; later requests for that shape
  land on the same chip, where its plan and packed filters are already
  warm (swCaffe's replicate-and-stay-warm layout; Demmel–Dinh's rule of
  moving the question to the data).  Cold shapes fall back to the
  least-loaded chip, ties broken by a seeded draw so placement is
  deterministic per seed.  An unroutable home (parked, dead, quarantined,
  breaker open) fails over: the shape is re-homed on the least-loaded
  survivor.
* **SLO classes** — requests are ``"latency"`` or ``"throughput"`` class.
  Latency-class requests carry a higher priority into the per-chip
  :class:`~repro.serve.batcher.DynamicBatcher`, which (with
  ``latency_max_wait_s`` armed) forms batches highest-priority-first and
  shortens the batching window when a latency-class request heads the
  batch.
* **Autoscaling** — a chip is ``active`` or ``parked``.  The autoscaler
  watches the fleet-wide queue depth (the ``serve.chip.<i>.queue_depth``
  gauges the batchers already sample): sustained backlog above
  ``backlog_per_chip`` activates a parked chip; a sustained idle streak
  drains-and-parks the highest-indexed idle chip, never below
  ``min_chips``.  Every decision drops a ``fleet.scale`` flight event.

Resilience is per chip, not global: each chip shares one circuit breaker
across its servers (the trip signal is chip-level), engine
health/quarantine stays inside each chip's pools, and a dead chip
(:meth:`FleetServer.kill_chip`, the chip-loss chaos hook) is routed
around with zero wrong answers.

Telemetry: every per-chip ``serve.*`` counter/metric is re-labelled
``serve.chip.<i>.*``; fleet-level counters live under ``serve.fleet.*``;
``route.decide`` flight events make ``chain(request_id)`` explain which
chip served a request and why.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import itertools

import numpy as np

from repro.common.errors import (
    DeadlineExceededError,
    QueueFullError,
    ServeError,
    ServerClosedError,
    ShedError,
)
from repro.common.rng import derive_rng
from repro.core.sharding import ChipStrip, fleet_strips, shard_batch
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.serve.breaker import BreakerPolicy, CircuitBreaker, OPEN
from repro.serve.model import ServedModel
from repro.serve.request import InferenceRequest
from repro.serve.server import InferenceServer, ServerConfig
from repro.serve.stats import LatencySummary
from repro.telemetry import current_telemetry

# -- SLO classes -------------------------------------------------------------

SLO_LATENCY = "latency"
SLO_THROUGHPUT = "throughput"
SLO_CLASSES = (SLO_LATENCY, SLO_THROUGHPUT)

#: Priority each SLO class carries into batch formation / brownout shedding.
SLO_PRIORITY = {SLO_LATENCY: 1, SLO_THROUGHPUT: 0}

# -- chip states -------------------------------------------------------------

CHIP_ACTIVE = "active"
CHIP_PARKED = "parked"
CHIP_QUARANTINED = "quarantined"
CHIP_DEAD = "dead"

# -- routing reasons ---------------------------------------------------------

ROUTE_AFFINITY = "affinity"
ROUTE_COLD = "cold"
ROUTE_FAILOVER = "failover"
ROUTE_SPILL = "spill"
ROUTE_BROWNOUT = "brownout"

#: Routing outcome counter suffixes (``serve.fleet.routed.<reason>``).
ROUTE_REASONS = (ROUTE_AFFINITY, ROUTE_COLD, ROUTE_FAILOVER, ROUTE_SPILL)


# -- per-chip telemetry views ------------------------------------------------


class _ChipCounters:
    """Counter view that re-labels ``serve.*`` as ``serve.chip.<i>.*``.

    Non-serve names (``tune.*``, ``plan_cache.*``, ``engine.*`` spans) pass
    through unprefixed — they are chip-agnostic library counters.  The
    per-chip server's ``counters_balanced()`` invariant keeps working
    because both its reads and its writes go through the same mapping.
    """

    __slots__ = ("_inner", "_prefix")

    def __init__(self, inner, index: int):
        self._inner = inner
        self._prefix = f"serve.chip.{index}."

    @property
    def enabled(self) -> bool:
        return self._inner.enabled

    def _map(self, name: str) -> str:
        if name.startswith("serve."):
            return self._prefix + name[len("serve."):]
        return name

    def add(self, name: str, value: int = 1) -> None:
        self._inner.add(self._map(name), value)

    def record_max(self, name: str, value: int) -> None:
        self._inner.record_max(self._map(name), value)

    def get(self, name: str) -> int:
        return self._inner.get(self._map(name))

    def total(self, prefix: str) -> int:
        return self._inner.total(self._map(prefix))

    def reset(self) -> None:  # pragma: no cover - never reset fleet-wide
        pass


class _ChipFlight:
    """Flight view that stamps ``chip=<i>`` on every recorded event."""

    __slots__ = ("_inner", "_index")

    def __init__(self, inner, index: int):
        self._inner = inner
        self._index = index

    @property
    def enabled(self) -> bool:
        return self._inner.enabled

    def record(self, kind: str, **args: Any) -> None:
        self._inner.record(kind, chip=self._index, **args)

    def chain(self, request_id: int):
        return self._inner.chain(request_id)

    def explain(self, request_id: int) -> str:
        return self._inner.explain(request_id)

    def __bool__(self) -> bool:
        return bool(self._inner)


class _ChipMetrics:
    """Metrics view that re-labels ``serve.*`` series/gauges per chip."""

    __slots__ = ("_inner", "_prefix")

    def __init__(self, inner, index: int):
        self._inner = inner
        self._prefix = f"serve.chip.{index}."

    @property
    def enabled(self) -> bool:
        return self._inner.enabled

    def _map(self, name: str) -> str:
        if name.startswith("serve."):
            return self._prefix + name[len("serve."):]
        return name

    def observe(self, name: str, value) -> None:
        self._inner.observe(self._map(name), value)

    def set_gauge(self, name: str, value) -> None:
        self._inner.set_gauge(self._map(name), value)

    def sample(self, name: str, t, value) -> None:
        self._inner.sample(self._map(name), t, value)


class ChipTelemetry:
    """One chip's telemetry view over the fleet session.

    Same counters/metrics/flight storage as the fleet's
    :class:`~repro.telemetry.session.Telemetry`, with every ``serve.*``
    name re-labelled ``serve.chip.<i>.*`` and every flight event stamped
    ``chip=<i>``.  The tracer passes through untouched (spans already
    carry their own args).
    """

    __slots__ = ("counters", "tracer", "metrics", "flight", "_inner")

    def __init__(self, inner, index: int):
        self._inner = inner
        self.counters = _ChipCounters(inner.counters, index)
        self.tracer = inner.tracer
        self.metrics = _ChipMetrics(inner.metrics, index)
        self.flight = _ChipFlight(inner.flight, index)

    @property
    def enabled(self) -> bool:
        return self._inner.enabled

    def reset(self) -> None:  # pragma: no cover - fleet owns resets
        pass


# -- routing -----------------------------------------------------------------


class CacheAffinityRouter:
    """Shape -> home-chip placement with least-loaded cold fallback.

    Pure decision logic, shared verbatim by the live :class:`FleetServer`
    and the virtual-time fleet simulator: callers pass the current
    ``loads`` mapping (routable chip index -> queue depth) and get back
    ``(chip, reason)``.  The home map and the seeded tie-break generator
    are the only state, so identical call sequences under the same seed
    make identical placements — the determinism the cold-shape
    tie-breaking test pins.

    Affinity alone dies on consolidation: after the autoscaler parks the
    fleet down to one chip, every shape is homed there, and a later
    scale-up adds capacity that pure affinity never touches.  *Spill*
    fixes that — when the home chip's queue is ``spill_depth`` deep and
    at least ``spill_margin`` deeper than the least-loaded chip, the
    request goes to the least-loaded chip instead and the shape is
    re-homed there (it pays one cold batch on arrival, then it is warm).
    Spills count as affinity misses.
    """

    def __init__(
        self, seed: int = 0, spill_depth: int = 32, spill_margin: int = 16
    ):
        if spill_depth < 1 or spill_margin < 1:
            raise ServeError("spill_depth and spill_margin must be >= 1")
        self.seed = seed
        self.spill_depth = spill_depth
        self.spill_margin = spill_margin
        self._rng = derive_rng(seed, "fleet.route")
        self._home: Dict[str, int] = {}

    @property
    def homes(self) -> Dict[str, int]:
        return dict(self._home)

    def assign(self, model: str, chip: int) -> None:
        """Pre-place ``model``'s home (the prewarm path)."""
        self._home[model] = chip

    def route(self, model: str, loads: Mapping[int, int]) -> Tuple[int, str]:
        """Pick the chip for one request; raises :class:`ShedError` on brownout.

        ``loads`` holds only *routable* chips.  Affinity hit: the model's
        home is routable.  Otherwise least-loaded wins (lowest queue
        depth, seeded draw among ties) and becomes the new home —
        ``cold`` if the shape had no home, ``failover`` if its home went
        unroutable.
        """
        if not loads:
            raise ShedError(
                f"fleet brownout: no routable chip for model {model!r} "
                "(all chips parked, dead, quarantined, or breaker-open)"
            )
        home = self._home.get(model)
        min_load = min(loads.values())
        if home is not None and home in loads:
            if (
                loads[home] < self.spill_depth
                or loads[home] - min_load < self.spill_margin
            ):
                return home, ROUTE_AFFINITY
            reason = ROUTE_SPILL
        elif home is None:
            reason = ROUTE_COLD
        else:
            reason = ROUTE_FAILOVER
        tied = sorted(i for i, depth in loads.items() if depth == min_load)
        if len(tied) == 1:
            chip = tied[0]
        else:
            chip = int(tied[int(self._rng.integers(len(tied)))])
        self._home[model] = chip
        return chip, reason


# -- autoscaling -------------------------------------------------------------

SCALE_UP = "up"
SCALE_PARK = "park"
SCALE_HOLD = "hold"


@dataclass(frozen=True)
class AutoscalerPolicy:
    """When to grow and shrink the active chip set.

    Scale up after ``scale_up_after`` consecutive observations with more
    than ``backlog_per_chip`` requests queued per active chip; drain-and-
    park one chip after ``park_after`` consecutive observations at or
    below the ``park_backlog_per_chip`` low-water mark, never below
    ``min_chips``.  Hysteresis comes from the gap between the two
    thresholds plus the streak lengths.
    """

    min_chips: int = 1
    backlog_per_chip: float = 8.0
    scale_up_after: int = 2
    park_after: int = 5
    park_backlog_per_chip: float = 0.5

    def __post_init__(self) -> None:
        if self.min_chips < 1:
            raise ServeError(f"min_chips must be >= 1, got {self.min_chips}")
        if self.backlog_per_chip <= 0:
            raise ServeError(
                f"backlog_per_chip must be positive, got {self.backlog_per_chip}"
            )
        if not 0 <= self.park_backlog_per_chip < self.backlog_per_chip:
            raise ServeError(
                "park_backlog_per_chip must be in [0, backlog_per_chip)"
            )
        if self.scale_up_after < 1 or self.park_after < 1:
            raise ServeError("scale_up_after and park_after must be >= 1")


class Autoscaler:
    """Streak-counting scale decisions over queue-depth observations.

    Pure with respect to the fleet: :meth:`observe` takes the current
    fleet backlog and active-chip count and returns ``"up"``, ``"park"``
    or ``"hold"``.  The live fleet feeds it from a tick thread; the
    simulator feeds it from virtual time.  Same policy, same streaks,
    same decisions.
    """

    def __init__(self, policy: Optional[AutoscalerPolicy] = None):
        self.policy = policy or AutoscalerPolicy()
        self._busy_streak = 0
        self._idle_streak = 0

    def observe(self, queued: int, active: int, busy: int = 0) -> str:
        """One observation: fleet backlog, active chips, busy chips.

        ``queued`` alone cannot tell a half-utilized fleet from an idle
        one — queues hover near zero until saturation — so the load
        signal is ``(queued + busy) / active``: ``busy`` counts chips
        with requests in flight (admitted, not yet terminal — exactly
        what the per-chip ``serve.chip.<i>.*`` counters expose).
        """
        policy = self.policy
        per_chip = (queued + busy) / max(active, 1)
        if per_chip > policy.backlog_per_chip:
            self._busy_streak += 1
            self._idle_streak = 0
        elif per_chip <= policy.park_backlog_per_chip:
            self._idle_streak += 1
            self._busy_streak = 0
        else:
            self._busy_streak = 0
            self._idle_streak = 0
        if self._busy_streak >= policy.scale_up_after:
            self._busy_streak = 0
            return SCALE_UP
        if self._idle_streak >= policy.park_after and active > policy.min_chips:
            self._idle_streak = 0
            return SCALE_PARK
        return SCALE_HOLD


# -- fleet configuration -----------------------------------------------------


@dataclass
class FleetConfig:
    """Every fleet knob in one place (per-chip servers inherit from here).

    ``autotune=False`` by default: the fleet's bit-identity audit compares
    chips against each other and against the single-chip server, so plans
    must come from the deterministic heuristic planner unless a caller
    opts in.  ``latency_max_wait_s`` arms SLO-class batch formation on
    every chip.  ``autoscale=False`` keeps every chip active;
    ``autoscale=True`` starts ``autoscaler.min_chips`` active with the
    rest parked, and a background thread (``autoscale_tick_s``; ``None``
    = manual :meth:`FleetServer.autoscale_tick` calls only) applies the
    policy.
    """

    chips: int = 4
    max_batch: int = 8
    max_wait_s: float = 0.002
    latency_max_wait_s: Optional[float] = 0.0005
    queue_depth: int = 64
    workers_per_server: int = 1
    backend: str = "numpy"
    guarded: bool = True
    autotune: bool = False
    default_deadline_s: Optional[float] = None
    latency_deadline_s: Optional[float] = None
    high_water: Optional[int] = None
    quarantine_after: int = 3
    breaker: Union[bool, BreakerPolicy] = True
    seed: int = 0
    spill_depth: int = 32
    spill_margin: int = 16
    spec: SW26010Spec = field(default_factory=lambda: DEFAULT_SPEC)
    fault_plan: Optional[Any] = None
    autoscale: bool = False
    autoscaler: AutoscalerPolicy = field(default_factory=AutoscalerPolicy)
    autoscale_tick_s: Optional[float] = 0.01

    def __post_init__(self) -> None:
        if self.chips < 1:
            raise ServeError(f"chips must be >= 1, got {self.chips}")
        if self.autoscaler.min_chips > self.chips:
            raise ServeError(
                f"min_chips ({self.autoscaler.min_chips}) exceeds fleet size "
                f"({self.chips})"
            )


# -- the chip ----------------------------------------------------------------


class _Chip:
    """One fleet member: strip identity, shared breaker, lazy warm servers."""

    def __init__(self, fleet: "FleetServer", strip: ChipStrip, state: str):
        self.strip = strip
        self.index = strip.index
        self.state = state
        self.telemetry = ChipTelemetry(fleet.telemetry, strip.index)
        self._fleet = fleet
        cfg = fleet.config
        self.breaker: Optional[CircuitBreaker] = None
        if cfg.breaker is not False:
            policy = cfg.breaker if isinstance(cfg.breaker, BreakerPolicy) else None
            self.breaker = CircuitBreaker(policy, telemetry=self.telemetry)
        self._servers: Dict[str, InferenceServer] = {}
        self._lock = threading.Lock()

    @property
    def routable(self) -> bool:
        if self.state != CHIP_ACTIVE:
            return False
        return self.breaker is None or self.breaker.state != OPEN

    def depth(self) -> int:
        with self._lock:
            servers = list(self._servers.values())
        return sum(server.batcher.depth() for server in servers)

    def inflight(self) -> int:
        """Requests admitted but not yet terminal (queued + executing).

        Computed from the chip's own ``serve.chip.<i>.*`` counters —
        admissions minus terminal outcomes — which is the autoscaler's
        busy signal.
        """
        counters = self.telemetry.counters
        terminal = sum(
            counters.get(name) for name in InferenceServer._TERMINAL_COUNTERS
        )
        return counters.get("serve.requests") - terminal

    def server_for(self, name: str) -> InferenceServer:
        """The warm per-model server on this chip, built on first route."""
        with self._lock:
            server = self._servers.get(name)
            if server is not None:
                return server
            if self.state == CHIP_DEAD:
                raise ServerClosedError(
                    f"{self.strip.label} is dead; cannot build a server"
                )
            fleet = self._fleet
            cfg = fleet.config
            server_cfg = ServerConfig(
                max_batch=cfg.max_batch,
                max_wait_s=cfg.max_wait_s,
                latency_max_wait_s=cfg.latency_max_wait_s,
                latency_priority=SLO_PRIORITY[SLO_LATENCY],
                queue_depth=cfg.queue_depth,
                workers=cfg.workers_per_server,
                backend=cfg.backend,
                guarded=cfg.guarded,
                autotune=cfg.autotune,
                default_deadline_s=cfg.default_deadline_s,
                spec=self.strip.spec,
                fault_plan=cfg.fault_plan,
                breaker=self.breaker if self.breaker is not None else False,
                high_water=cfg.high_water,
                quarantine_after=cfg.quarantine_after,
            )
            server = InferenceServer(
                fleet.catalog[name],
                server_cfg,
                telemetry=self.telemetry,
                request_ids=fleet._ids,
                batch_ids=fleet._batch_ids,
            )
            server.start()
            self._servers[name] = server
            fleet.telemetry.counters.add("serve.fleet.warm_builds")
            return server

    def servers(self) -> Dict[str, InferenceServer]:
        with self._lock:
            return dict(self._servers)

    def close(self, timeout: float = 10.0) -> None:
        for server in self.servers().values():
            server.close(timeout)


# -- the fleet ---------------------------------------------------------------


class FleetServer:
    """The multi-chip front door: route, batch per SLO class, autoscale.

    Serves a *catalog* of models (one :class:`ServedModel` per layer
    shape).  Usable as a context manager::

        fleet = FleetServer({"layerA": model_a, "layerB": model_b},
                            FleetConfig(chips=4))
        with fleet:
            req = fleet.submit(image, model="layerA", slo="latency")
            out = req.result(timeout=5.0)
    """

    def __init__(
        self,
        models: Union[ServedModel, Sequence[ServedModel], Mapping[str, ServedModel]],
        config: Optional[FleetConfig] = None,
        telemetry=None,
    ):
        self.config = config or FleetConfig()
        self.telemetry = telemetry if telemetry is not None else current_telemetry()
        self.catalog: Dict[str, ServedModel] = self._build_catalog(models)
        self.strips = fleet_strips(self.config.chips, self.config.spec)
        initial_active = (
            self.config.autoscaler.min_chips if self.config.autoscale
            else self.config.chips
        )
        #: Global request/batch ID streams shared by every per-chip server,
        #: so flight ``chain(request_id)`` is unambiguous fleet-wide.
        self._ids = itertools.count()
        self._batch_ids = itertools.count()
        self._chips: List[_Chip] = [
            _Chip(
                self,
                strip,
                CHIP_ACTIVE if strip.index < initial_active else CHIP_PARKED,
            )
            for strip in self.strips
        ]
        self.router = CacheAffinityRouter(
            seed=self.config.seed,
            spill_depth=self.config.spill_depth,
            spill_margin=self.config.spill_margin,
        )
        self._scaler = Autoscaler(self.config.autoscaler)
        self._route_lock = threading.Lock()
        self._started = False
        self._closed = False
        self._scale_thread: Optional[threading.Thread] = None
        self._stop_scaling = threading.Event()

    @staticmethod
    def _build_catalog(models) -> Dict[str, ServedModel]:
        if isinstance(models, ServedModel):
            return {models.name: models}
        if isinstance(models, Mapping):
            catalog = dict(models)
        else:
            catalog = {model.name: model for model in models}
        if not catalog:
            raise ServeError("fleet needs at least one served model")
        for name, model in catalog.items():
            if not isinstance(model, ServedModel):
                raise ServeError(f"catalog entry {name!r} is not a ServedModel")
        return catalog

    # -- lifecycle ---------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._started

    @property
    def closed(self) -> bool:
        return self._closed

    def start(self) -> "FleetServer":
        if self._closed:
            raise ServerClosedError("cannot start a closed fleet")
        if self._started:
            raise ServeError("fleet already started")
        self._started = True
        if self.config.autoscale and self.config.autoscale_tick_s is not None:
            self._scale_thread = threading.Thread(
                target=self._scale_loop, name="fleet-autoscaler", daemon=True
            )
            self._scale_thread.start()
        return self

    def close(self, timeout: float = 10.0) -> None:
        if self._closed:
            return
        self._closed = True
        self._stop_scaling.set()
        if self._scale_thread is not None:
            self._scale_thread.join(timeout)
        for chip in self._chips:
            chip.close(timeout)
        self._started = False

    def __enter__(self) -> "FleetServer":
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- placement ---------------------------------------------------------

    def prewarm(self) -> int:
        """Pre-home the whole catalog across active chips and warm it.

        Shapes are split into contiguous per-chip groups with
        :func:`repro.core.sharding.shard_batch` (sorted name order, so the
        placement is deterministic), each group's home is registered with
        the router, and the servers are built — the first real request for
        every shape is then an affinity hit on a warm pool.  Returns the
        number of servers built.
        """
        active = [chip for chip in self._chips if chip.state == CHIP_ACTIVE]
        if not active:
            raise ServeError("prewarm needs at least one active chip")
        names = sorted(self.catalog)
        built = 0
        start = 0
        for chip, group in zip(active, shard_batch(len(names), len(active))):
            for name in names[start:start + group]:
                self.router.assign(name, chip.index)
                chip.server_for(name)
                built += 1
            start += group
        return built

    # -- submission --------------------------------------------------------

    def submit(
        self,
        x: np.ndarray,
        model: Optional[str] = None,
        slo: str = SLO_THROUGHPUT,
        deadline_s: Optional[float] = None,
    ) -> InferenceRequest:
        """Route one (C, H, W) image to a chip and enqueue it there.

        ``model`` may be omitted for a single-model catalog.  ``slo``
        selects the class: ``"latency"`` carries priority
        ``SLO_PRIORITY["latency"]`` into batch formation (and defaults its
        deadline to the config's ``latency_deadline_s``); ``"throughput"``
        rides the full batching window.  Raises a typed
        :class:`ShedError` when no chip is routable (global brownout) and
        re-raises whatever the chip's server raises on admission.
        """
        if self._closed:
            raise ServerClosedError("fleet is closed")
        if slo not in SLO_CLASSES:
            raise ServeError(f"unknown SLO class {slo!r}; expected {SLO_CLASSES}")
        name = self._resolve_model(model)
        x = np.asarray(x, dtype=np.float64)
        self.catalog[name].validate(x)
        counters = self.telemetry.counters
        flight = self.telemetry.flight
        counters.add("serve.fleet.requests")
        if deadline_s is None and slo == SLO_LATENCY:
            deadline_s = self.config.latency_deadline_s
        attempts = 0
        while True:
            with self._route_lock:
                loads = {
                    chip.index: chip.depth()
                    for chip in self._chips
                    if chip.routable
                }
                try:
                    index, reason = self.router.route(name, loads)
                except ShedError:
                    counters.add("serve.fleet.shed")
                    flight.record(
                        "route.decide", chip=-1, model=name,
                        reason=ROUTE_BROWNOUT, slo=slo,
                    )
                    raise
            chip = self._chips[index]
            try:
                req = chip.server_for(name).submit(
                    x, deadline_s=deadline_s, priority=SLO_PRIORITY[slo]
                )
                break
            except ServerClosedError:
                # The chip died between routing and admission; mark it and
                # re-route, so the race window stays invisible to callers.
                with self._route_lock:
                    if chip.state != CHIP_DEAD:
                        chip.state = CHIP_DEAD
                attempts += 1
                if attempts >= len(self._chips):
                    counters.add("serve.fleet.rejected")
                    flight.record(
                        "route.decide", chip=chip.index, model=name,
                        reason="rejected", slo=slo,
                    )
                    raise
        counters.add(f"serve.fleet.routed.{reason}")
        flight.record(
            "route.decide",
            request=req.request_id,
            chip=chip.index,
            model=name,
            reason=reason,
            slo=slo,
        )
        return req

    def _resolve_model(self, model: Optional[str]) -> str:
        if model is None:
            if len(self.catalog) == 1:
                return next(iter(self.catalog))
            raise ServeError(
                f"fleet serves {len(self.catalog)} models; submit needs model="
            )
        if model not in self.catalog:
            raise ServeError(f"unknown model {model!r}")
        return model

    # -- autoscaling -------------------------------------------------------

    def _scale_loop(self) -> None:
        tick = self.config.autoscale_tick_s
        while not self._stop_scaling.wait(tick):
            self.autoscale_tick()

    def autoscale_tick(self) -> str:
        """One autoscaler observation + (maybe) one scale action.

        Reads the fleet backlog from the per-chip batcher depths (the
        source the ``serve.chip.<i>.queue_depth`` gauges sample), feeds
        the streak counters, and applies the decision: ``up`` activates
        the lowest-indexed parked chip, ``park`` drains-and-parks the
        highest-indexed idle active chip.  Returns the applied decision
        (``"hold"`` when nothing changed).
        """
        counters = self.telemetry.counters
        metrics = self.telemetry.metrics
        flight = self.telemetry.flight
        with self._route_lock:
            active = [c for c in self._chips if c.state == CHIP_ACTIVE]
            queued = sum(chip.depth() for chip in active)
            busy = sum(1 for chip in active if chip.inflight() > 0)
            if metrics.enabled:
                metrics.set_gauge("serve.fleet.queue_depth", queued)
                metrics.set_gauge("serve.fleet.active_chips", len(active))
            decision = self._scaler.observe(queued, len(active), busy=busy)
            if decision == SCALE_UP:
                parked = [c for c in self._chips if c.state == CHIP_PARKED]
                if not parked:
                    return SCALE_HOLD
                chip = parked[0]
                chip.state = CHIP_ACTIVE
                counters.add("serve.fleet.scale.up")
                flight.record(
                    "fleet.scale", action=SCALE_UP, chip=chip.index,
                    queued=queued, active=len(active) + 1,
                )
                return SCALE_UP
            if decision == SCALE_PARK:
                idle = [c for c in active if c.depth() == 0]
                if len(active) <= self._scaler.policy.min_chips or not idle:
                    return SCALE_HOLD
                chip = idle[-1]
                chip.state = CHIP_PARKED
                counters.add("serve.fleet.scale.park")
                flight.record(
                    "fleet.scale", action=SCALE_PARK, chip=chip.index,
                    queued=queued, active=len(active) - 1,
                )
                return SCALE_PARK
        return SCALE_HOLD

    # -- faults ------------------------------------------------------------

    def kill_chip(self, index: int, reason: str = "chaos") -> None:
        """Chip loss: stop routing to ``index`` and drain what it held.

        The chip's servers are closed (their queued requests resolve —
        executed by the draining workers or failed with a typed
        :class:`ServerClosedError`), and subsequent requests homed there
        fail over.  Zero wrong answers either way; the chaos harness
        asserts exactly that.
        """
        chip = self._chips[index]
        with self._route_lock:
            if chip.state == CHIP_DEAD:
                return
            chip.state = CHIP_DEAD
        self.telemetry.counters.add("serve.fleet.chip_deaths")
        self.telemetry.flight.record(
            "fleet.scale", action="dead", chip=index, reason=reason
        )
        chip.close()

    def quarantine_chip(self, index: int) -> None:
        """Take a chip out of routing without killing its servers."""
        chip = self._chips[index]
        with self._route_lock:
            if chip.state == CHIP_ACTIVE:
                chip.state = CHIP_QUARANTINED
        self.telemetry.counters.add("serve.fleet.chip_quarantines")
        self.telemetry.flight.record(
            "fleet.scale", action=CHIP_QUARANTINED, chip=index
        )

    # -- introspection -----------------------------------------------------

    def chip_states(self) -> Dict[int, str]:
        return {chip.index: chip.state for chip in self._chips}

    def active_chips(self) -> List[int]:
        return [c.index for c in self._chips if c.state == CHIP_ACTIVE]

    def affinity_stats(self) -> Dict[str, Any]:
        """Routing outcome counts and the cache-affinity hit rate."""
        counters = self.telemetry.counters
        stats = {
            reason: counters.get(f"serve.fleet.routed.{reason}")
            for reason in ROUTE_REASONS
        }
        routed = sum(stats.values())
        stats["routed"] = routed
        stats["hit_rate"] = stats[ROUTE_AFFINITY] / routed if routed else 0.0
        return stats

    def accounting(self) -> Dict[str, Any]:
        """Fleet-wide counter snapshot plus the balance check."""
        counters = self.telemetry.counters
        per_chip = {}
        for chip in self._chips:
            prefix = f"serve.chip.{chip.index}."
            per_chip[chip.index] = {
                "state": chip.state,
                "requests": counters.get(prefix + "requests"),
                "completed": counters.get(prefix + "completed"),
                "shed": counters.get(prefix + "shed"),
                "errors": counters.get(prefix + "errors"),
            }
        return {
            "fleet.requests": counters.get("serve.fleet.requests"),
            "fleet.shed": counters.get("serve.fleet.shed"),
            "routing": self.affinity_stats(),
            "chips": per_chip,
            "balanced": self.counters_balanced(),
        }

    def counters_balanced(self) -> bool:
        """Every fleet request reached exactly one chip or a typed shed.

        Two invariants: each chip's server counters balance (admissions ==
        terminal outcomes, the single-server invariant under its per-chip
        labels), and the fleet's front door accounts for every submission
        — ``serve.fleet.requests == sum(serve.chip.<i>.requests) +
        serve.fleet.shed``.
        """
        counters = self.telemetry.counters
        routed = 0
        for chip in self._chips:
            prefix = f"serve.chip.{chip.index}."
            requests = counters.get(prefix + "requests")
            terminal = sum(
                counters.get(prefix + name.split("serve.")[-1])
                for name in InferenceServer._TERMINAL_COUNTERS
            )
            if requests != terminal:
                return False
            routed += requests
        fleet_requests = counters.get("serve.fleet.requests")
        fleet_shed = counters.get("serve.fleet.shed")
        fleet_rejected = counters.get("serve.fleet.rejected")
        return fleet_requests == routed + fleet_shed + fleet_rejected


# -- fleet workload + load runner -------------------------------------------


@dataclass(frozen=True)
class FleetRequestSpec:
    """One planned fleet request: when, which shape, which image, what SLO."""

    offset_s: float
    model: str
    image_index: int
    slo: str


def fleet_workload(
    model_names: Sequence[str],
    n: int,
    rate_rps: float,
    pattern: str = "poisson",
    seed: int = 0,
    latency_fraction: float = 0.25,
    skew: float = 1.0,
    images_per_model: int = 8,
    **arrival_kwargs: Any,
) -> List[FleetRequestSpec]:
    """A seeded fleet trace: arrivals x skewed shape mix x SLO mix.

    Shapes are drawn Zipf-like (probability of the ``i``-th name in
    ``model_names`` order proportional to ``1/(i+1)**skew``), matching the
    skewed mix the affinity hit-rate claim is measured on.  The SLO class
    is latency with probability ``latency_fraction``.  Deterministic per
    ``(model_names, n, rate_rps, pattern, seed, ...)``.
    """
    from repro.serve.loadgen import make_arrivals

    if not model_names:
        raise ServeError("fleet_workload needs at least one model name")
    if not 0.0 <= latency_fraction <= 1.0:
        raise ServeError(
            f"latency_fraction must be in [0, 1], got {latency_fraction}"
        )
    offsets = make_arrivals(pattern, n, rate_rps, seed=seed, **arrival_kwargs)
    rng = derive_rng(seed, "fleet.workload")
    weights = np.array(
        [1.0 / (i + 1) ** skew for i in range(len(model_names))]
    )
    weights /= weights.sum()
    choices = rng.choice(len(model_names), size=n, p=weights)
    latency_flags = rng.random(n) < latency_fraction
    per_model_seq: Dict[str, int] = {}
    workload: List[FleetRequestSpec] = []
    for i in range(n):
        name = model_names[int(choices[i])]
        seq = per_model_seq.get(name, 0)
        per_model_seq[name] = seq + 1
        workload.append(
            FleetRequestSpec(
                offset_s=float(offsets[i]),
                model=name,
                image_index=seq % images_per_model,
                slo=SLO_LATENCY if latency_flags[i] else SLO_THROUGHPUT,
            )
        )
    return workload


@dataclass
class FleetLoadReport:
    """Outcome of one fleet load run (JSON-ready via :meth:`as_dict`)."""

    offered: int
    completed: int
    rejected: int
    shed: int
    deadline_misses: int
    errors: int
    wall_seconds: float
    latency: LatencySummary
    latency_by_slo: Dict[str, LatencySummary]
    affinity: Dict[str, Any]
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def rps(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.completed / self.wall_seconds

    def as_dict(self) -> Dict[str, Any]:
        return {
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "shed": self.shed,
            "deadline_misses": self.deadline_misses,
            "errors": self.errors,
            "wall_seconds": self.wall_seconds,
            "rps": self.rps,
            "latency": self.latency.as_dict(),
            "latency_by_slo": {
                slo: summary.as_dict()
                for slo, summary in self.latency_by_slo.items()
            },
            "affinity": dict(self.affinity),
            **self.extra,
        }


def run_fleet_load(
    fleet: FleetServer,
    workload: Sequence[FleetRequestSpec],
    images: Mapping[str, np.ndarray],
    result_timeout_s: float = 60.0,
) -> Tuple[FleetLoadReport, List[Optional[np.ndarray]]]:
    """Replay a :func:`fleet_workload` trace against a started fleet.

    Returns the report plus per-request outputs aligned with the workload
    (None where the request was shed, rejected, missed its deadline, or
    errored) so callers can audit the fleet bit-identical against a
    single-chip or sequential reference.
    """
    if not fleet.started:
        raise ServeError("run_fleet_load needs a started fleet")
    submitted: List[Optional[InferenceRequest]] = []
    slos: List[str] = []
    rejected = 0
    shed = 0
    t0 = time.perf_counter()
    for spec in workload:
        delay = t0 + spec.offset_s - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        slos.append(spec.slo)
        pool = images[spec.model]
        try:
            submitted.append(
                fleet.submit(
                    pool[spec.image_index % len(pool)],
                    model=spec.model,
                    slo=spec.slo,
                )
            )
        except ShedError:
            shed += 1
            submitted.append(None)
        except (QueueFullError, ServerClosedError):
            rejected += 1
            submitted.append(None)
    outputs: List[Optional[np.ndarray]] = []
    latencies: List[float] = []
    by_slo: Dict[str, List[float]] = {slo: [] for slo in SLO_CLASSES}
    completed = 0
    misses = 0
    errors = 0
    t_last = t0
    for req, slo in zip(submitted, slos):
        if req is None:
            outputs.append(None)
            continue
        try:
            outputs.append(req.result(timeout=result_timeout_s))
            completed += 1
            latency = req.latency_s or 0.0
            latencies.append(latency)
            by_slo[slo].append(latency)
            t_last = max(t_last, req.t_done or t_last)
        except DeadlineExceededError:
            outputs.append(None)
            misses += 1
            t_last = max(t_last, req.t_done or t_last)
        except ShedError:
            outputs.append(None)
            shed += 1
            t_last = max(t_last, req.t_done or t_last)
        except Exception:  # noqa: BLE001 - tallied, surfaced in the report
            outputs.append(None)
            errors += 1
    report = FleetLoadReport(
        offered=len(workload),
        completed=completed,
        rejected=rejected,
        shed=shed,
        deadline_misses=misses,
        errors=errors,
        wall_seconds=max(t_last - t0, 1e-12),
        latency=LatencySummary.from_seconds(latencies),
        latency_by_slo={
            slo: LatencySummary.from_seconds(sample)
            for slo, sample in by_slo.items()
        },
        affinity=fleet.affinity_stats(),
        extra={
            "chips": fleet.config.chips,
            "active_chips": fleet.active_chips(),
        },
    )
    return report, outputs
