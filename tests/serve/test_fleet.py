"""Multi-chip fleet: routing, SLO formation, autoscaling, bit-identity.

The fleet's contracts, each pinned by a test class below:

* the router is deterministic (seeded tie-breaks, affinity homes, load-
  aware spill) and sheds with a *typed* error when no chip is routable;
* SLO-class batch formation puts latency-class requests at the head of
  the batch, FIFO within a class, without disturbing the default FIFO
  path bit-for-bit;
* the autoscaler is a pure streak machine over (queued, active, busy);
* a fleet answer is bit-identical to the single-chip server's answer for
  the same image — in-process and across process restarts;
* every front-door submission is accounted: routed to exactly one chip's
  balanced counters, or counted shed/rejected.
"""

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.common.errors import ServeError, ShedError
from repro.serve import (
    Autoscaler,
    AutoscalerPolicy,
    BatchPolicy,
    CacheAffinityRouter,
    DynamicBatcher,
    FleetConfig,
    FleetServer,
    InferenceRequest,
    ServedModel,
    bursty_arrivals,
    diurnal_arrivals,
    fleet_workload,
    make_arrivals,
    run_fleet_load,
    synthetic_images,
)
from repro.common.schema import CHAOS_FLEET_SCHEMA, validate
from repro.serve.fleet import ROUTE_AFFINITY, ROUTE_COLD, ROUTE_FAILOVER, ROUTE_SPILL
from repro.telemetry import Telemetry, use_telemetry

pytestmark = pytest.mark.serve


def _models(n=2, seed=7, image=8, ni=4):
    rng = np.random.default_rng(seed)
    models = {}
    for i in range(n):
        w = rng.standard_normal((4 + 2 * i, ni, 3, 3)) * 0.2
        model = ServedModel.conv(w, (image, image), name=f"m{i}")
        models[model.name] = model
    return models


class TestCacheAffinityRouter:
    def test_brownout_is_a_typed_shed(self):
        router = CacheAffinityRouter()
        with pytest.raises(ShedError):
            router.route("m0", {})

    def test_affinity_hit_returns_home(self):
        router = CacheAffinityRouter()
        router.assign("m0", 2)
        chip, reason = router.route("m0", {0: 5, 1: 0, 2: 9})
        assert (chip, reason) == (2, ROUTE_AFFINITY)

    def test_cold_routes_least_loaded(self):
        router = CacheAffinityRouter()
        chip, reason = router.route("m0", {0: 3, 1: 1, 2: 4})
        assert (chip, reason) == (1, ROUTE_COLD)
        # The cold decision set the home: the next route is an affinity hit.
        assert router.route("m0", {0: 0, 1: 2, 2: 0})[1] == ROUTE_AFFINITY

    def test_failover_when_home_vanishes(self):
        router = CacheAffinityRouter()
        router.assign("m0", 1)
        chip, reason = router.route("m0", {0: 0, 2: 3})
        assert reason == ROUTE_FAILOVER
        assert chip == 0
        # Failover re-homes: the dead chip is forgotten.
        assert router.homes["m0"] == 0

    def test_spill_rehomes_when_home_is_drowning(self):
        router = CacheAffinityRouter(spill_depth=4, spill_margin=2)
        router.assign("m0", 0)
        # Deep home but everyone is equally deep: stay (no margin).
        assert router.route("m0", {0: 6, 1: 5})[1] == ROUTE_AFFINITY
        # Deep home, idle neighbour: spill and re-home.
        chip, reason = router.route("m0", {0: 6, 1: 0})
        assert (chip, reason) == (1, ROUTE_SPILL)
        assert router.homes["m0"] == 1

    def test_cold_tiebreak_is_seed_deterministic(self):
        loads = {0: 0, 1: 0, 2: 0, 3: 0}
        names = [f"m{i}" for i in range(12)]
        a = CacheAffinityRouter(seed=3)
        b = CacheAffinityRouter(seed=3)
        placed_a = [a.route(name, loads)[0] for name in names]
        placed_b = [b.route(name, loads)[0] for name in names]
        assert placed_a == placed_b


class TestAutoscaler:
    def test_sustained_backlog_scales_up(self):
        scaler = Autoscaler(AutoscalerPolicy(backlog_per_chip=4, scale_up_after=3))
        assert scaler.observe(40, 2) == "hold"
        assert scaler.observe(40, 2) == "hold"
        assert scaler.observe(40, 2) == "up"
        # The streak resets after the decision fires.
        assert scaler.observe(40, 3) == "hold"

    def test_blip_does_not_scale(self):
        scaler = Autoscaler(AutoscalerPolicy(backlog_per_chip=4, scale_up_after=3))
        scaler.observe(40, 2)
        scaler.observe(40, 2)
        assert scaler.observe(0, 2) == "hold"
        assert scaler.observe(40, 2) == "hold"  # streak restarted

    def test_sustained_idle_parks(self):
        scaler = Autoscaler(
            AutoscalerPolicy(min_chips=1, park_after=3, park_backlog_per_chip=0.5)
        )
        decisions = [scaler.observe(0, 2) for _ in range(3)]
        assert decisions == ["hold", "hold", "park"]

    def test_busy_chips_do_not_park(self):
        # Queue depth near zero but every chip mid-batch: utilization, not
        # idleness — the busy signal must veto the park.
        scaler = Autoscaler(
            AutoscalerPolicy(min_chips=1, park_after=2, park_backlog_per_chip=0.5)
        )
        assert scaler.observe(0, 2, busy=2) == "hold"
        assert scaler.observe(0, 2, busy=2) == "hold"
        assert scaler.observe(0, 2, busy=2) == "hold"


class TestArrivalPatterns:
    @pytest.mark.parametrize("pattern", ["poisson", "bursty", "diurnal"])
    def test_deterministic_sorted_nonnegative(self, pattern):
        a = make_arrivals(pattern, 500, 1000.0, seed=5)
        b = make_arrivals(pattern, 500, 1000.0, seed=5)
        assert np.array_equal(a, b)
        assert len(a) == 500
        assert (np.diff(a) >= 0).all()
        assert (a >= 0).all()

    def test_unknown_pattern_is_typed(self):
        with pytest.raises(ServeError):
            make_arrivals("lunar", 10, 100.0)

    def test_bursty_is_burstier_than_poisson(self):
        # The MMPP's coefficient of variation of inter-arrival gaps must
        # exceed the exponential's ~1 — that's what "bursty" means.
        bursty = np.diff(bursty_arrivals(20000, 1000.0, seed=1))
        poisson = np.diff(make_arrivals("poisson", 20000, 1000.0, seed=1))
        cv_bursty = bursty.std() / bursty.mean()
        cv_poisson = poisson.std() / poisson.mean()
        assert cv_bursty > cv_poisson * 1.08
        assert cv_bursty > 1.1

    def test_diurnal_rate_oscillates(self):
        arr = diurnal_arrivals(20000, 1000.0, seed=2, period_s=4.0, depth=0.8)
        # Per-second arrival counts through two periods must swing well
        # above and below the mean rate.
        counts = np.histogram(arr, bins=np.arange(0.0, 8.0, 0.5))[0] * 2
        assert counts.max() > 1400
        assert counts.min() < 600


class TestSLOFormation:
    @staticmethod
    def _batcher(latency_wait):
        policy = BatchPolicy(
            max_batch=8, max_wait_s=0.05,
            latency_max_wait_s=latency_wait, latency_priority=1,
        )
        return DynamicBatcher(policy=policy, queue_depth=16, telemetry=Telemetry())

    def test_latency_class_heads_the_batch(self):
        batcher = self._batcher(0.0)
        for rid, priority in ((0, 0), (1, 0), (2, 1), (3, 1)):
            batcher.offer(InferenceRequest(rid, np.zeros(1), priority=priority))
        batch = batcher.next_batch()
        # Priority-first, FIFO within class.
        assert [r.request_id for r in batch] == [2, 3, 0, 1]

    def test_default_policy_keeps_pure_fifo(self):
        policy = BatchPolicy(max_batch=8, max_wait_s=0.0)
        batcher = DynamicBatcher(policy=policy, queue_depth=16, telemetry=Telemetry())
        for rid, priority in ((0, 0), (1, 1), (2, 0)):
            batcher.offer(InferenceRequest(rid, np.zeros(1), priority=priority))
        assert [r.request_id for r in batcher.next_batch()] == [0, 1, 2]


class TestFleetEndToEnd:
    @pytest.fixture(scope="class")
    def rig(self):
        telemetry = Telemetry()
        models = _models(3)
        images = {
            name: synthetic_images(4, model.input_shape, seed=11)
            for name, model in models.items()
        }
        workload = fleet_workload(
            sorted(models), 36, 4000.0, pattern="bursty", seed=9,
            images_per_model=4,
        )
        with use_telemetry(telemetry):
            fleet = FleetServer(
                models,
                FleetConfig(chips=2, max_batch=4, seed=0),
                telemetry=telemetry,
            )
            with fleet:
                fleet.prewarm()
                report, outputs = run_fleet_load(fleet, workload, images)
                accounting = fleet.accounting()
        return telemetry, fleet, workload, report, outputs, accounting, images

    def test_everything_completed_and_balanced(self, rig):
        _, fleet, _, report, outputs, accounting, _ = rig
        assert report.completed == report.offered == 36
        assert report.errors == 0
        assert accounting["balanced"]
        assert fleet.counters_balanced()
        assert all(out is not None for out in outputs)

    def test_prewarm_makes_the_trace_all_affinity_hits(self, rig):
        _, _, _, report, _, _, _ = rig
        assert report.affinity["hit_rate"] >= 0.9
        assert report.affinity["cold"] == 0

    def test_per_chip_counters_cover_the_trace(self, rig):
        telemetry, _, _, _, _, accounting, _ = rig
        counters = telemetry.counters
        total = sum(
            counters.get(f"serve.chip.{i}.requests") for i in (0, 1)
        )
        assert total == 36
        for i in (0, 1):
            assert counters.get(f"serve.chip.{i}.requests") > 0
            assert accounting["chips"][i]["requests"] == counters.get(
                f"serve.chip.{i}.requests"
            )

    def test_route_decide_in_the_causal_chain(self, rig):
        telemetry, _, _, _, _, _, _ = rig
        flight = telemetry.flight
        decides = [e for e in flight.events() if e.kind == "route.decide"]
        assert len(decides) == 36
        sample = decides[0]
        assert sample.args["reason"] in ("affinity", "cold", "failover", "spill")
        chain = flight.chain(sample.args["request"])
        assert any(e.kind == "route.decide" for e in chain)
        assert any(e.kind == "batch.form" for e in chain)
        text = flight.explain(sample.args["request"])
        assert "route.decide" in text

    def test_fleet_matches_single_chip_bit_for_bit(self, rig):
        _, _, workload, _, outputs, _, images = rig
        telemetry = Telemetry()
        models = _models(3)
        with use_telemetry(telemetry):
            single = FleetServer(
                models,
                FleetConfig(chips=1, max_batch=4, seed=0),
                telemetry=telemetry,
            )
            with single:
                single.prewarm()
                _, single_outputs = run_fleet_load(single, workload, images)
        for fleet_out, single_out in zip(outputs, single_outputs):
            assert fleet_out is not None and single_out is not None
            assert np.array_equal(fleet_out, single_out)


class TestFleetDegradedRouting:
    def test_all_chips_quarantined_is_a_typed_brownout(self):
        telemetry = Telemetry()
        models = _models(1)
        x = synthetic_images(1, models["m0"].input_shape, seed=1)[0]
        with use_telemetry(telemetry):
            fleet = FleetServer(
                models, FleetConfig(chips=2, max_batch=2), telemetry=telemetry
            )
            with fleet:
                fleet.quarantine_chip(0)
                fleet.quarantine_chip(1)
                with pytest.raises(ShedError):
                    fleet.submit(x, model="m0")
                assert fleet.counters_balanced()
        counters = telemetry.counters
        assert counters.get("serve.fleet.shed") == 1
        assert counters.get("serve.fleet.requests") == 1

    def test_kill_chip_fails_over_and_stays_correct(self):
        telemetry = Telemetry()
        models = _models(2)
        images = {
            name: synthetic_images(2, model.input_shape, seed=3)
            for name, model in models.items()
        }
        with use_telemetry(telemetry):
            fleet = FleetServer(
                models, FleetConfig(chips=2, max_batch=2), telemetry=telemetry
            )
            with fleet:
                fleet.prewarm()
                homes = dict(fleet.router.homes)
                victim = homes["m0"]
                fleet.kill_chip(victim)
                req = fleet.submit(images["m0"][0], model="m0")
                out = req.result(timeout=30.0)
                assert fleet.counters_balanced()
        reference = models["m0"].reference_forward(images["m0"][:1])[0]
        assert np.array_equal(out, reference)
        assert telemetry.counters.get("serve.fleet.routed.failover") == 1
        assert telemetry.counters.get("serve.fleet.chip_deaths") == 1
        deaths = [
            e for e in telemetry.flight.events()
            if e.kind == "fleet.scale" and e.args.get("action") == "dead"
        ]
        assert len(deaths) == 1 and deaths[0].args["chip"] == victim


class TestFleetAutoscale:
    def test_manual_ticks_scale_up_then_park(self):
        telemetry = Telemetry()
        models = _models(2)
        images = {
            name: synthetic_images(2, model.input_shape, seed=5)
            for name, model in models.items()
        }
        policy = AutoscalerPolicy(
            min_chips=1, backlog_per_chip=1.0, scale_up_after=2,
            park_after=2, park_backlog_per_chip=0.5,
        )
        with use_telemetry(telemetry):
            fleet = FleetServer(
                models,
                FleetConfig(
                    chips=2, max_batch=2, autoscale=True, autoscaler=policy,
                    autoscale_tick_s=None,
                ),
                telemetry=telemetry,
            )
            with fleet:
                assert fleet.active_chips() == [0]
                reqs = [
                    fleet.submit(images[name][i], model=name)
                    for name in sorted(models) for i in (0, 1)
                ]
                # Sustained backlog on the tick stream scales up...
                decisions = {fleet.autoscale_tick() for _ in range(3)}
                for req in reqs:
                    req.result(timeout=30.0)
                drained = [fleet.autoscale_tick() for _ in range(4)]
        assert "up" in decisions or "up" in drained
        # ...and a drained fleet parks back down to min_chips.
        assert "park" in drained
        assert telemetry.counters.get("serve.fleet.scale.up") >= 1
        assert telemetry.counters.get("serve.fleet.scale.park") >= 1
        scale_events = [
            e for e in telemetry.flight.events() if e.kind == "fleet.scale"
        ]
        assert {e.args["action"] for e in scale_events} >= {"up", "park"}


_CHILD = r"""
import hashlib
import sys

sys.path.insert(0, sys.argv[1])
import numpy as np

from repro.serve import (
    FleetConfig, FleetServer, ServedModel, fleet_workload, run_fleet_load,
    synthetic_images,
)
from repro.telemetry import Telemetry, use_telemetry

chips = int(sys.argv[2])
rng = np.random.default_rng(7)
models = {}
for i in range(2):
    w = rng.standard_normal((4 + 2 * i, 4, 3, 3)) * 0.2
    model = ServedModel.conv(w, (8, 8), name=f"m{i}")
    models[model.name] = model
images = {
    name: synthetic_images(4, model.input_shape, seed=11)
    for name, model in models.items()
}
workload = fleet_workload(
    sorted(models), 24, 4000.0, pattern="bursty", seed=9, images_per_model=4
)
telemetry = Telemetry()
with use_telemetry(telemetry):
    fleet = FleetServer(
        models, FleetConfig(chips=chips, max_batch=4, seed=0),
        telemetry=telemetry,
    )
    with fleet:
        fleet.prewarm()
        _, outputs = run_fleet_load(fleet, workload, images)
digest = hashlib.sha256()
for out in outputs:
    assert out is not None
    digest.update(np.ascontiguousarray(out).tobytes())
print(digest.hexdigest())
"""


class TestCrossProcessBitIdentity:
    def test_fleet_outputs_survive_process_restarts(self):
        import repro

        pkg_root = str(pathlib.Path(repro.__file__).parents[1])

        def run(chips):
            out = subprocess.run(
                [sys.executable, "-c", _CHILD, pkg_root, str(chips)],
                capture_output=True, text=True, check=True,
            )
            return out.stdout.strip()

        first = run(2)
        second = run(2)
        single = run(1)
        # Same trace, fresh process: bit-identical outputs — and the
        # 2-chip fleet matches the single-chip server byte for byte.
        assert first == second == single


@pytest.mark.faults
class TestChaosFleet:
    def test_chip_loss_routes_around_with_zero_wrong_answers(self):
        from repro.faults import run_chaos_fleet

        report = run_chaos_fleet(chips=3, n_requests=40, rate_rps=1500.0)
        assert report.zero_wrong_answers
        assert report.counters_balanced
        assert report.errors == 0
        assert report.failovers >= 1
        assert report.chip_deaths == 1
        assert report.chip_states[report.killed_chip] == "dead"
        payload = report.as_dict()
        assert payload == json.loads(json.dumps(payload))
        assert validate(payload) == []


class TestChaosFleetReportSchema:
    @staticmethod
    def _payload():
        return {
            "schema": CHAOS_FLEET_SCHEMA,
            "seed": 1, "chips": 3, "killed_chip": 0, "kill_at": 9,
            "offered": 24, "completed": 24, "shed": 0, "rejected": 0,
            "deadline_misses": 0, "errors": 0, "wrong_answers": 0,
            "availability": 1.0, "failovers": 1, "chip_deaths": 1,
            "counters_balanced": True,
            "chip_states": {"0": "dead", "1": "active", "2": "active"},
            "routing": {"affinity": 23, "failover": 1, "hit_rate": 0.96},
        }

    def test_valid_payload_passes(self):
        assert validate(self._payload()) == []

    @pytest.mark.parametrize(
        "key, value",
        [
            ("wrong_answers", 2),
            ("counters_balanced", False),
            ("failovers", 0),
            ("errors", 1),
        ],
    )
    def test_each_smoke_bar_is_enforced(self, key, value):
        violations = validate({**self._payload(), key: value})
        assert len(violations) == 1 and violations[0].startswith(f"{key}:")


class TestFleetReportSchema:
    @staticmethod
    def _payload():
        row = {
            "chips": 1, "offered_rps": 100.0, "throughput_rps": 90.0,
            "p50_ms": 1.0, "p99_ms": 2.0, "affinity_hit_rate": 0.95,
            "mean_batch": 4.0,
        }
        return {
            "schema": "repro.fleet/v1",
            "rows": [
                dict(row),
                {**row, "chips": 2, "throughput_rps": 180.0},
                {**row, "chips": 4, "throughput_rps": 360.0},
            ],
            "scaling_4chip": 4.0,
            "p99_ratio_4v1": 1.0,
            "affinity_hit_rate": 0.95,
            "real_fleet": {
                "chips": 2, "requests": 36, "completed": 36,
                "wrong_answers": 0, "bit_identical": True,
                "counters_balanced": True, "affinity_hit_rate": 0.95,
            },
            "diurnal": {
                "requests": 1000, "chips": 4, "min_chips": 1,
                "scale_ups": 3, "scale_parks": 2, "mean_active_chips": 2.5,
                "p99_ms": 5.0, "static_p99_ms": 4.0,
            },
        }

    def test_valid_payload_passes(self):
        assert validate(self._payload()) == []

    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda p: p.update(scaling_4chip=2.0), "scaling_4chip"),
            (lambda p: p.update(p99_ratio_4v1=2.0), "p99_ratio"),
            (lambda p: p.update(affinity_hit_rate=0.5), "affinity_hit_rate"),
            (lambda p: p["real_fleet"].update(wrong_answers=1), "wrong answer"),
            (lambda p: p["real_fleet"].update(bit_identical=False), "bit-identical"),
            (lambda p: p["diurnal"].update(scale_parks=0), "parked"),
            (lambda p: p.pop("real_fleet"), "real_fleet"),
        ],
    )
    def test_each_bar_is_enforced(self, mutate, needle):
        payload = self._payload()
        mutate(payload)
        violations = validate(payload)
        assert violations
        assert any(needle in v for v in violations)

    def test_payload_is_json_round_trippable(self):
        payload = self._payload()
        assert json.loads(json.dumps(payload)) == payload
