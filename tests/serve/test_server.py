"""End-to-end server behavior: parity, coalescing, accounting, lifecycle."""

import numpy as np
import pytest

from repro.common.errors import ServeError, ServerClosedError
from repro.core.layers import AvgPool2D, Conv2D, ReLU
from repro.core.network import Sequential
from repro.serve import (
    InferenceServer,
    ServedModel,
    ServerConfig,
    WarmEnginePool,
    run_load,
    run_sequential,
    synthetic_images,
)
from repro.telemetry import Telemetry

pytestmark = pytest.mark.serve


def _conv_model(ni=8, no=8, k=3, hw=8, seed=0, activation="relu"):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((no, ni, k, k)) * np.sqrt(2.0 / (ni * k * k))
    bias = rng.standard_normal(no) * 0.1
    return ServedModel.conv(w, (hw, hw), bias=bias, activation=activation)


def _config(**overrides):
    base = dict(
        max_batch=4,
        max_wait_s=0.001,
        queue_depth=64,
        workers=1,
        autotune=False,
        guarded=True,
    )
    base.update(overrides)
    return ServerConfig(**base)


class TestEndToEnd:
    def test_batched_outputs_match_reference_and_sequential(self):
        model = _conv_model()
        telem = Telemetry()
        images = synthetic_images(12, model.input_shape, seed=1)
        with InferenceServer(model, _config(), telemetry=telem) as server:
            report, outputs = run_load(
                server, images, rate_rps=100000.0, seed=2
            )
        assert report.completed == 12
        reference = model.reference_forward(images)
        pool = WarmEnginePool(model, max_batch=4, autotune=False, guarded=True)
        _, sequential = run_sequential(pool, images)
        for i, out in enumerate(outputs):
            assert out is not None
            # Coalesced execution is bit-identical to running alone: the
            # image-family schedule preserves per-element accumulation
            # order regardless of the batch extent.
            np.testing.assert_array_equal(out, sequential[i])
            np.testing.assert_allclose(out, reference[i], rtol=1e-10, atol=1e-10)

    def test_requests_actually_coalesce(self):
        model = _conv_model()
        telem = Telemetry()
        images = synthetic_images(16, model.input_shape, seed=3)
        with InferenceServer(model, _config(), telemetry=telem) as server:
            report, _ = run_load(server, images, rate_rps=100000.0, seed=4)
        batches = telem.counters.get("serve.batches")
        assert report.completed == 16
        assert telem.counters.get("serve.batched_images") == 16
        assert batches < 16, "no coalescing happened"
        assert telem.counters.get("serve.batch_size") > 1

    def test_counters_balance_after_quiesce(self):
        model = _conv_model()
        telem = Telemetry()
        server = InferenceServer(model, _config(), telemetry=telem)
        server.start()
        reqs = [server.submit(x) for x in synthetic_images(6, model.input_shape)]
        for req in reqs:
            req.result(timeout=30.0)
        server.close()
        assert server.counters_balanced()
        acct = server.accounting()
        assert acct["serve.requests"] == 6
        assert acct["serve.completed"] == 6
        assert acct["balanced"] is True

    def test_network_model_serves(self):
        net = Sequential(
            [Conv2D(4, 4, 3, 3, engine="simulated"), ReLU(), AvgPool2D(2)]
        )
        model = ServedModel.network(net, (4, 8, 8))
        images = synthetic_images(6, model.input_shape, seed=5)
        with InferenceServer(model, _config(max_batch=3)) as server:
            reqs = [server.submit(x) for x in images]
            outs = [r.result(timeout=30.0) for r in reqs]
        expected = net.forward(images)
        for i, out in enumerate(outs):
            np.testing.assert_allclose(out, expected[i], rtol=1e-10, atol=1e-10)

    def test_pooling_model_serves(self):
        # 9x9 input, 3x3 filter -> 7x7 conv output, pooled 7x7 -> 1x1.
        rng = np.random.default_rng(7)
        w = rng.standard_normal((4, 4, 3, 3))
        model = ServedModel.conv(w, (9, 9), pool=7, activation=None)
        images = synthetic_images(4, model.input_shape, seed=8)
        with InferenceServer(model, _config(max_batch=2)) as server:
            outs = [server.submit(x).result(timeout=30.0) for x in images]
        reference = model.reference_forward(images)
        for i, out in enumerate(outs):
            np.testing.assert_allclose(out, reference[i], rtol=1e-10, atol=1e-10)


class TestLifecycle:
    def test_double_start_rejected(self):
        server = InferenceServer(_conv_model(), _config())
        server.start()
        try:
            with pytest.raises(ServeError):
                server.start()
        finally:
            server.close()

    def test_submit_after_close_raises(self):
        model = _conv_model()
        server = InferenceServer(model, _config())
        server.start()
        server.close()
        with pytest.raises(ServerClosedError):
            server.submit(np.zeros(model.input_shape))

    def test_close_fails_queued_requests(self):
        model = _conv_model()
        telem = Telemetry()
        server = InferenceServer(model, _config(), telemetry=telem)
        # Never started: submissions queue, close must fail them.
        req = server.submit(np.zeros(model.input_shape))
        server.close()
        with pytest.raises(ServerClosedError):
            req.result(timeout=1.0)
        assert telem.counters.get("serve.cancelled") == 1
        assert server.counters_balanced()

    def test_wrong_shape_rejected_at_submit(self):
        model = _conv_model()
        server = InferenceServer(model, _config())
        with pytest.raises(ServeError):
            server.submit(np.zeros((3, 5, 5)))
        server.close()

    def test_close_is_idempotent(self):
        server = InferenceServer(_conv_model(), _config())
        server.start()
        server.close()
        server.close()


class TestPoolValidation:
    def test_unknown_plan_family_rejected(self):
        with pytest.raises(ServeError):
            WarmEnginePool(_conv_model(), plan_family="zigzag")

    def test_guarded_sharding_rejected(self):
        with pytest.raises(ServeError):
            WarmEnginePool(_conv_model(), guarded=True, batch_shards=2)

    def test_oversized_batch_rejected(self):
        model = _conv_model()
        pool = WarmEnginePool(model, max_batch=2, autotune=False)
        with pytest.raises(ServeError):
            pool.run_batch(np.zeros((3, *model.input_shape)))

    def test_sharded_pool_matches_reference(self):
        model = _conv_model()
        pool = WarmEnginePool(
            model, max_batch=4, autotune=False, guarded=False, batch_shards=2
        )
        pool.warm()
        xb = synthetic_images(4, model.input_shape, seed=9)
        np.testing.assert_allclose(
            pool.run_batch(xb), model.reference_forward(xb),
            rtol=1e-10, atol=1e-10,
        )


class TestRequestSpans:
    def test_enabled_tracer_records_per_request_spans(self):
        model = _conv_model()
        telem = Telemetry()
        images = synthetic_images(5, model.input_shape, seed=10)
        with InferenceServer(model, _config(), telemetry=telem) as server:
            for x in images:
                server.submit(x).result(timeout=30.0)
        names = [s.name for s in telem.tracer.spans]
        assert "serve.warm" in names
        assert names.count("serve.request") == 5
        assert names.count("serve.execute") == 5
        assert "serve.queued" in names
        # The retroactive spans form a valid Chrome trace.
        from repro.common.schema import validate

        assert validate(telem.tracer.to_chrome_trace()) == []
