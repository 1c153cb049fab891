"""Executed multi-node data-parallel training: parity, buckets, chaos."""

import itertools
import math

import numpy as np
import pytest

from repro.common.errors import PlanError
from repro.core.layers import AvgPool2D, Conv2D, Dense, Flatten, ReLU, SoftmaxCrossEntropy
from repro.core.gemm_plan import GemmParams
from repro.core.network import SGD, Sequential, synthetic_image_dataset
from repro.core.params import ConvParams
from repro.core.zoo import ZooLayer, layer_cost
from repro.scale.cluster import (
    ClusterFaultSpec,
    ClusterTrainer,
    LayerCost,
    plan_buckets,
    profile_network,
    simulate_step_timeline,
    weights_bitwise_equal,
)
from repro.scale.exchange import ClusterExchange, exact_sum, reduce_micro_gradients
from repro.scale.network import InterconnectModel
from repro.telemetry import Telemetry

pytestmark = pytest.mark.scale

SHAPE = (3, 10, 10)
CLASSES = 10


def make_factory(seed=42):
    def factory():
        rng = np.random.default_rng(seed)
        return Sequential(
            [
                Conv2D(3, 8, 3, 3, rng=rng),
                ReLU(),
                AvgPool2D(2),
                Flatten(),
                Dense(8 * 4 * 4, CLASSES, rng=rng),
            ]
        )

    return factory


@pytest.fixture(scope="module")
def dataset():
    return synthetic_image_dataset(96, *SHAPE, CLASSES, rng=np.random.default_rng(7))


class TestExactSum:
    def test_matches_fsum_elementwise(self, rng):
        arrays = [rng.standard_normal((3, 2)) for _ in range(5)]
        out = exact_sum(arrays)
        for idx in np.ndindex(3, 2):
            assert out[idx] == math.fsum(a[idx] for a in arrays)

    def test_order_and_grouping_free(self, rng):
        arrays = [
            rng.standard_normal(16) * 10.0 ** float(rng.integers(-8, 8))
            for _ in range(9)
        ]
        forward = exact_sum(arrays)
        backward = exact_sum(arrays[::-1])
        shuffled = exact_sum([arrays[i] for i in rng.permutation(9)])
        assert np.array_equal(forward.view(np.uint64), backward.view(np.uint64))
        assert np.array_equal(forward.view(np.uint64), shuffled.view(np.uint64))

    def test_single_term_is_exact_copy(self, rng):
        a = rng.standard_normal(8)
        out = exact_sum([a])
        assert np.array_equal(out.view(np.uint64), a.view(np.uint64))
        assert out is not a

    def test_empty_rejected(self):
        with pytest.raises(PlanError):
            exact_sum([])


def _fsum_loop(arrays):
    """The per-element ``math.fsum`` reduction: the reference for two terms."""
    stacked = np.stack([np.asarray(a, dtype=np.float64) for a in arrays])
    flat = stacked.reshape(len(arrays), -1)
    out = np.empty(flat.shape[1], dtype=np.float64)
    for i in range(flat.shape[1]):
        out[i] = math.fsum(flat[:, i])
    return out.reshape(stacked.shape[1:])


#: Values at the edges of float64: signed zeros, the smallest subnormal and
#: normal magnitudes, values whose sums overflow, infinities and NaN.
EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    -2.2250738585072014e-308, 1.1125369292536007e-308, 0.1, -0.1, 1.0, -1.0,
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
    math.inf, -math.inf, math.nan,
]


def _outcome(fn, arrays):
    """Result bytes, or the exception type and message."""
    try:
        return fn(arrays).tobytes()
    except (OverflowError, ValueError) as err:
        return type(err), str(err)


class TestExactSumOfTwo:
    """Two partials (the two-node exchange) skip the per-element fsum loop."""

    def test_random_pairs_match_fsum_loop(self, rng):
        scale = 10.0 ** rng.integers(-300, 300, size=(2, 100_000))
        a, b = rng.standard_normal((2, 100_000)) * scale
        assert exact_sum([a, b]).tobytes() == _fsum_loop([a, b]).tobytes()
        shaped = [a.reshape(100, 1000), b.reshape(100, 1000)]
        assert exact_sum(shaped).tobytes() == _fsum_loop(shaped).tobytes()

    def test_subnormal_pairs_match_fsum_loop(self, rng):
        a = rng.integers(-2**20, 2**20, size=10_000) * 5e-324
        b = rng.integers(-2**20, 2**20, size=10_000) * 5e-324
        for pair in ([a, b], [a, -a], [-a, -a]):
            assert exact_sum(pair).tobytes() == _fsum_loop(pair).tobytes()

    def test_every_pair_of_edge_values(self):
        for x, y in itertools.product(EDGE_VALUES, repeat=2):
            pair = [np.array([x]), np.array([y])]
            assert _outcome(exact_sum, pair) == _outcome(_fsum_loop, pair), (x, y)
        assert len(EDGE_VALUES) ** 2 == 324

    def test_edge_values_as_arrays(self):
        a = np.repeat(EDGE_VALUES, len(EDGE_VALUES))
        b = np.tile(EDGE_VALUES, len(EDGE_VALUES))
        # The first entry fsum rejects decides the error, as in the loop.
        assert _outcome(exact_sum, [a, b]) == _outcome(_fsum_loop, [a, b])
        small = (np.abs(a) < 1e308) & (np.abs(b) < 1e308)  # NaN fails too
        pair = [a[small], b[small]]
        assert exact_sum(pair).tobytes() == _fsum_loop(pair).tobytes()

    def test_negative_zero_sum_is_positive_zero(self):
        out = exact_sum([np.array([-0.0]), np.array([-0.0])])
        assert out.tobytes() == np.array([math.fsum([-0.0, -0.0])]).tobytes()

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            exact_sum([np.array([1e308, 1.0]), np.array([1e308, 2.0])])
        with pytest.raises(ValueError):
            exact_sum([np.array([math.inf]), np.array([-math.inf])])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            exact_sum([np.zeros(3), np.zeros(4)])


class TestReduceMicroGradients:
    def test_sums_across_micros(self, rng):
        micros = [
            [{"w": rng.standard_normal((2, 2)), "bias": rng.standard_normal(2)}]
            for _ in range(4)
        ]
        reduced = reduce_micro_gradients(micros)
        assert len(reduced) == 1
        expected = exact_sum([m[0]["w"] for m in micros])
        assert np.array_equal(reduced[0]["w"], expected)

    def test_layer_count_mismatch_rejected(self, rng):
        g = {"w": rng.standard_normal(2)}
        with pytest.raises(PlanError, match="layer count"):
            reduce_micro_gradients([[g], [g, g]])

    def test_empty_rejected(self):
        with pytest.raises(PlanError):
            reduce_micro_gradients([])


class TestClusterExchange:
    def test_returns_staged_not_local(self, rng):
        exchange = ClusterExchange()
        staged = [{"w": rng.standard_normal(3)}]
        exchange.stage(staged)
        local = [{"w": rng.standard_normal(3)}]
        assert exchange.reduce(local) is staged

    def test_unstaged_reduce_rejected(self):
        with pytest.raises(PlanError, match="outside a cluster step"):
            ClusterExchange().reduce([])

    def test_clear_unstages(self, rng):
        exchange = ClusterExchange()
        exchange.stage([{"w": rng.standard_normal(3)}])
        exchange.clear()
        with pytest.raises(PlanError):
            exchange.reduce([{"w": rng.standard_normal(3)}])

    def test_layer_count_mismatch_rejected(self, rng):
        exchange = ClusterExchange()
        exchange.stage([{"w": rng.standard_normal(3)}])
        with pytest.raises(PlanError, match="parameter layers"):
            exchange.reduce([])


class TestProfileNetwork:
    def test_costs_cover_every_layer(self):
        costs = profile_network(make_factory()(), SHAPE, batch=8)
        assert len(costs) == 5
        conv, dense = costs[0], costs[4]
        assert conv.forward_seconds > 0 and conv.backward_seconds > 0
        assert dense.forward_seconds > 0 and dense.backward_seconds > 0
        assert conv.gradient_bytes == (8 * 3 * 3 * 3 + 8) * 8
        # ReLU/pool/flatten carry no parameters and no simulated time.
        for cost in costs[1:4]:
            assert not cost.has_gradients
            assert cost.forward_seconds == 0.0

    def test_bad_batch_rejected(self):
        with pytest.raises(PlanError):
            profile_network(make_factory()(), SHAPE, batch=0)

    def test_seconds_are_the_zoo_layer_cost(self):
        """One cost path: the executed probe prices a Conv2D and a Dense
        exactly as the zoo prices the matching ZooLayers."""
        costs = profile_network(make_factory()(), SHAPE, batch=8)
        conv = ConvParams(ni=3, no=8, ri=10, ci=10, kr=3, kc=3, b=8)
        dense = GemmParams(m=CLASSES, n=8, k=8 * 4 * 4)
        zoo = [
            layer_cost(ZooLayer("conv", "conv", conv=conv)),
            layer_cost(ZooLayer("dense", "fc", fc=dense)),
        ]
        for executed, modeled in zip((costs[0], costs[4]), zoo):
            assert executed.forward_seconds == modeled.forward_seconds
            assert executed.backward_seconds == modeled.backward_seconds


class TestPlanBuckets:
    def _costs(self, sizes):
        return [
            LayerCost(f"l{i}", 1e-3, 2e-3, nbytes) for i, nbytes in enumerate(sizes)
        ]

    def test_backward_order_and_packing(self):
        buckets = plan_buckets(self._costs([100, 0, 100, 300]), bucket_bytes=400)
        assert [b.layer_indices for b in buckets] == [(3, 2), (0,)]
        assert [b.nbytes for b in buckets] == [400, 100]

    def test_oversized_tensor_gets_own_bucket(self):
        buckets = plan_buckets(self._costs([50, 1000, 50]), bucket_bytes=200)
        assert [b.layer_indices for b in buckets] == [(2,), (1,), (0,)]

    def test_single_bucket_when_everything_fits(self):
        buckets = plan_buckets(self._costs([10, 10, 10]), bucket_bytes=1 << 20)
        assert len(buckets) == 1
        assert buckets[0].layer_indices == (2, 1, 0)

    def test_bucket_bytes_validated(self):
        with pytest.raises(PlanError):
            plan_buckets(self._costs([10]), bucket_bytes=0)


class TestStepTimeline:
    def _setup(self, sizes=(1 << 20, 8 << 20), bucket_bytes=1 << 20):
        costs = [
            LayerCost(f"l{i}", 1e-3, 2e-3, nbytes) for i, nbytes in enumerate(sizes)
        ]
        return costs, plan_buckets(costs, bucket_bytes), InterconnectModel()

    def test_single_node_has_no_comm(self):
        costs, buckets, net = self._setup()
        tl = simulate_step_timeline(costs, 1, net, "ring", buckets)
        assert tl.comm_seconds == 0.0
        assert tl.step_seconds == pytest.approx(tl.compute_seconds)

    def test_overlap_never_slower_than_serialized(self):
        costs, buckets, net = self._setup()
        tl = simulate_step_timeline(costs, 8, net, "ring", buckets)
        assert tl.step_seconds <= tl.serialized_seconds
        assert tl.overlap_speedup >= 1.0

    def test_serialized_schedule(self):
        costs, buckets, net = self._setup()
        tl = simulate_step_timeline(costs, 8, net, "ring", buckets, overlap=False)
        assert tl.step_seconds == pytest.approx(tl.compute_seconds + tl.comm_seconds)
        assert tl.overlap_speedup == pytest.approx(1.0)

    def test_first_bucket_starts_before_backward_ends(self):
        costs, buckets, net = self._setup()
        tl = simulate_step_timeline(costs, 8, net, "ring", buckets)
        backward_end = tl.compute_seconds
        assert tl.bucket_spans[0].start < backward_end

    def test_straggler_stretches_compute(self):
        costs, buckets, net = self._setup()
        healthy = simulate_step_timeline(costs, 4, net, "ring", buckets)
        slow = simulate_step_timeline(
            costs, 4, net, "ring", buckets, node_scales=[1.0, 3.0, 1.0, 1.0]
        )
        assert slow.compute_seconds == pytest.approx(3 * healthy.compute_seconds)

    def test_partition_penalty_stretches_comm(self):
        costs, buckets, net = self._setup()
        healthy = simulate_step_timeline(costs, 4, net, "ring", buckets)
        cut = simulate_step_timeline(
            costs, 4, net, "ring", buckets, partition_penalty=2.0
        )
        assert cut.comm_seconds == pytest.approx(2 * healthy.comm_seconds)

    def test_degraded_link_slows_comm(self):
        costs, buckets, net = self._setup()
        healthy = simulate_step_timeline(costs, 4, net, "ring", buckets)
        slow = simulate_step_timeline(
            costs, 4, net, "ring", buckets, link_factor=0.5
        )
        assert slow.comm_seconds > healthy.comm_seconds


class TestClusterTrainer:
    def test_parity_across_node_counts(self, dataset):
        """N=1, 2, 4 nodes, same batches, same grain -> identical bits."""
        x, labels = dataset
        trainers = {}
        for nodes in (1, 2, 4):
            trainer = ClusterTrainer(
                make_factory(), nodes, SHAPE, momentum=0.9, grain=4
            )
            for step in range(3):
                lo = step * 16
                trainer.step(x[lo : lo + 16], labels[lo : lo + 16])
            trainers[nodes] = trainer
        assert weights_bitwise_equal(trainers[1].weights(), trainers[2].weights())
        assert weights_bitwise_equal(trainers[2].weights(), trainers[4].weights())

    def test_one_node_cluster_is_plain_sgd(self, dataset):
        x, labels = dataset
        plain = make_factory()()
        head = SoftmaxCrossEntropy()
        optimizer = SGD(plain, lr=0.05, momentum=0.9)
        cluster = ClusterTrainer(make_factory(), 1, SHAPE, momentum=0.9)
        for step in range(2):
            lo = step * 16
            xb, yb = x[lo : lo + 16], labels[lo : lo + 16]
            head.forward(plain.forward(xb), yb)
            plain.backward(head.backward())
            optimizer.step()
            cluster.step(xb, yb)
        assert weights_bitwise_equal(plain, cluster.weights())

    def test_replicas_stay_in_lockstep(self, dataset):
        x, labels = dataset
        trainer = ClusterTrainer(make_factory(), 4, SHAPE)
        trainer.step(x[:16], labels[:16])
        assert trainer.replicas_in_lockstep()

    def test_threaded_matches_serial(self, dataset):
        x, labels = dataset
        serial = ClusterTrainer(make_factory(), 4, SHAPE, jobs=1)
        threaded = ClusterTrainer(make_factory(), 4, SHAPE, jobs=4)
        for step in range(2):
            lo = step * 16
            serial.step(x[lo : lo + 16], labels[lo : lo + 16])
            threaded.step(x[lo : lo + 16], labels[lo : lo + 16])
        assert weights_bitwise_equal(serial.weights(), threaded.weights())

    def test_jobs_env_var_is_default(self, monkeypatch):
        monkeypatch.setenv("SWDNN_JOBS", "3")
        trainer = ClusterTrainer(make_factory(), 4, SHAPE)
        assert trainer.resolved_jobs == 3
        # Explicit jobs wins over the environment.
        assert ClusterTrainer(make_factory(), 4, SHAPE, jobs=2).resolved_jobs == 2
        # Clamped to the node count.
        monkeypatch.setenv("SWDNN_JOBS", "64")
        assert ClusterTrainer(make_factory(), 4, SHAPE).resolved_jobs == 4

    def test_batch_must_divide(self, dataset):
        x, labels = dataset
        trainer = ClusterTrainer(make_factory(), 4, SHAPE)
        with pytest.raises(PlanError, match="multiple"):
            trainer.step(x[:18], labels[:18])

    def test_grain_must_divide_shard(self, dataset):
        x, labels = dataset
        trainer = ClusterTrainer(make_factory(), 2, SHAPE, grain=3)
        with pytest.raises(PlanError, match="grain"):
            trainer.step(x[:16], labels[:16])

    def test_nondeterministic_factory_rejected(self):
        seeds = iter(range(100))

        def sloppy():  # different weights on every call
            return Sequential([Dense(4, 2, rng=np.random.default_rng(next(seeds)))])

        with pytest.raises(PlanError, match="not deterministic"):
            ClusterTrainer(sloppy, 2, SHAPE)

    def test_bad_topology_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown topology"):
            ClusterTrainer(make_factory(), 2, SHAPE, topology="torus")

    def test_comm_counters_recorded(self, dataset):
        x, labels = dataset
        telemetry = Telemetry()
        trainer = ClusterTrainer(make_factory(), 4, SHAPE, telemetry=telemetry)
        trainer.step(x[:16], labels[:16])
        counters = telemetry.counters.as_dict()
        assert counters["comm.steps"] == 1
        assert counters["comm.allreduces"] >= 1
        assert counters["comm.link_bytes"] > 0
        assert counters["comm.seconds"] > 0
        spans = [s for s in telemetry.tracer.spans if s.tid == "interconnect"]
        assert spans, "allreduce spans missing from the interconnect track"

    def test_single_node_records_no_traffic(self, dataset):
        x, labels = dataset
        telemetry = Telemetry()
        trainer = ClusterTrainer(make_factory(), 1, SHAPE, telemetry=telemetry)
        trainer.step(x[:16], labels[:16])
        counters = telemetry.counters.as_dict()
        assert counters.get("comm.link_bytes", 0) == 0
        assert counters.get("comm.allreduces", 0) == 0

    def test_fit_drops_remainder(self, dataset):
        x, labels = dataset
        trainer = ClusterTrainer(make_factory(), 2, SHAPE)
        result = trainer.fit(x[:40], labels[:40], epochs=1, global_batch=16)
        assert result.steps == 2  # 40 = 2 full batches of 16 + dropped 8

    def test_loss_decreases(self, dataset):
        x, labels = dataset
        trainer = ClusterTrainer(make_factory(), 4, SHAPE, momentum=0.9)
        result = trainer.fit(x, labels, epochs=3, global_batch=32)
        assert result.losses[-1] < result.losses[0]


class TestClusterChaos:
    def test_fault_spec_validated(self):
        with pytest.raises(ValueError):
            ClusterFaultSpec(straggler_rate=1.5)
        with pytest.raises(ValueError):
            ClusterFaultSpec(straggler_slowdown=0.5)
        with pytest.raises(ValueError):
            ClusterFaultSpec(link_degrade_factor=0.0)
        with pytest.raises(ValueError):
            ClusterFaultSpec(partition_penalty=0.9)

    def test_healthy_by_default(self):
        assert ClusterFaultSpec().healthy
        assert not ClusterFaultSpec(straggler_rate=0.5).healthy

    def test_chaos_is_seeded_and_slows_steps(self, dataset):
        x, labels = dataset
        spec = ClusterFaultSpec(
            seed=11, straggler_rate=1.0, straggler_slowdown=4.0
        )
        runs = []
        for _ in range(2):
            trainer = ClusterTrainer(make_factory(), 4, SHAPE, faults=spec)
            report = trainer.step(x[:16], labels[:16])
            runs.append(report)
        assert runs[0].fault_events == runs[1].fault_events
        assert runs[0].fault_events  # rate 1.0 -> every node straggles
        healthy = ClusterTrainer(make_factory(), 4, SHAPE)
        baseline = healthy.step(x[:16], labels[:16])
        assert runs[0].timeline.compute_seconds == pytest.approx(
            4 * baseline.timeline.compute_seconds
        )

    def test_chaos_never_changes_weights(self, dataset):
        x, labels = dataset
        spec = ClusterFaultSpec(
            seed=3,
            straggler_rate=0.5,
            link_degrade_rate=0.5,
            partition_rate=0.5,
        )
        chaotic = ClusterTrainer(make_factory(), 4, SHAPE, faults=spec)
        calm = ClusterTrainer(make_factory(), 4, SHAPE)
        for step in range(2):
            lo = step * 16
            chaotic.step(x[lo : lo + 16], labels[lo : lo + 16])
            calm.step(x[lo : lo + 16], labels[lo : lo + 16])
        assert weights_bitwise_equal(chaotic.weights(), calm.weights())
