"""``serve``: open-loop traffic through the dynamic-batching server.

The only workload where the batcher, the warm pool, the guarded engine and
the numpy tile loop carry the load.  Planning and tuning happen only while
the server starts, so they show in set-up time.

One ``InferenceServer`` serves a 32->32 channel 3x3 convolution with bias
and ReLU on 32x32 images (``max_batch=16``, ``max_wait_s=0.002``, one
worker, guarded, autotuned in-process).  The load comes from the main
thread of the same process.  The run alternates ``CYCLES`` pairs of
sub-phases of ``seconds / (2 * CYCLES)`` each:

* **saturation** -- the admission queue is topped up to ``SAT_DEPTH``
  every ``POLL_S`` seconds, so the worker never waits for work.  Its
  answer rate is the capacity right now.
* **half load** -- seeded Poisson arrivals (open loop) at
  ``LOAD_FRACTION`` of that capacity.  Each request is timed from the
  moment it was due to be sent, so a stalled sender or server shows in
  every later request's latency.  How late the sender ran is reported as
  ``loadgen.lag_*``.

Outputs of a seeded sample of answered requests are kept and checked
against ``ServedModel.reference_forward`` and against batch-of-one runs on
the same warm pool.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import statistics
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from swbench.common import (
    Check,
    Context,
    Result,
    derive_seed,
    mean,
    offered_latencies,
    percentile,
)

#: Offered rate of a half-load sub-phase, as a share of the saturated rate
#: measured just before it.  A frozen rate (280 req/s, about half the
#: capacity on a 2-core x86 host) swung the p90 by about 2x across runs
#: there, because that host's CPU speed drifts by 15-35% and queueing
#: amplifies the drift.  At a fixed share of the capacity measured just
#: before, latency moves only with service time.
LOAD_FRACTION = 0.5
#: p90 latency limit of the half-load phase; a failed request counts as
#: over it.
P90_LIMIT_MS = 100.0
#: Admission queue bound: deep enough that a host stall of about a second
#: at the half-load rate queues requests instead of rejecting them.
QUEUE_DEPTH = 512
SAT_DEPTH = 48
POLL_S = 0.002
#: The run alternates this many (saturation, half load) pairs of
#: sub-phases, so each half-load sub-phase offers a share of the capacity
#: measured just before it, even as the host's speed drifts.
CYCLES = 6
TINY_CYCLES = 1
#: Upper bound on the half-load rate, for drawing enough arrivals.
MAX_RPS = 2000
#: Latency percentiles and the saturated rate are medians over windows of
#: this length.
WINDOW_S = 1.0
#: Distinct images a phase cycles through (keeps memory flat).
IMAGE_POOL = 64
#: Half-load requests whose outputs are checked: a seeded choice among
#: the first ``CHECK_POOL`` requests, which every run sends.
CHECK_SAMPLE = 48
CHECK_POOL = 400
TINY_CHECK_POOL = 40
#: Of those, how many are re-run alone on the pool (bit identity).
BIT_SAMPLE = 12
COUNTERS_WHEN_TRACED = True

CHANNELS = 32
IMAGE_HW = (32, 32)


class _Phase:
    """Per-request stamps of one phase, gathered as requests finish."""

    def __init__(self) -> None:
        #: Latency ms from due (None if failed) per offered request, by
        #: (cycle, window) of its due time.
        self.windows: Dict[Tuple[int, int], List[Optional[float]]] = {}
        #: Answers per second in each saturation window.
        self.rates: List[float] = []
        self.latency_ms: List[float] = []  # from due (half load) or submit time
        self.queue_ms: List[float] = []
        self.dispatch_ms: List[float] = []
        self.resolve_ms: List[float] = []
        self.lag_ms: List[float] = []
        self.done_at: List[float] = []
        self.batches = 0.0  # each answer adds 1/batch_size
        self.offered = 0
        self.failures: Dict[str, int] = {}

    def fail(self, error: BaseException, window: Tuple[int, int]) -> None:
        kind = type(error).__name__
        self.failures[kind] = self.failures.get(kind, 0) + 1
        self.windows.setdefault(window, []).append(None)

    def finish(self, req, due: float, window: Tuple[int, int]) -> bool:
        """Record one finished request; False if it failed."""
        error = req.exception(timeout=60.0)
        if error is not None:
            self.fail(error, window)
            return False
        latency_ms = (req.t_done - due) * 1e3
        self.windows.setdefault(window, []).append(latency_ms)
        self.latency_ms.append(latency_ms)
        self.queue_ms.append((req.t_batched - req.t_enqueue) * 1e3)
        self.dispatch_ms.append((req.t_exec_start - req.t_batched) * 1e3)
        self.resolve_ms.append((req.t_done - req.t_exec_end) * 1e3)
        self.done_at.append(req.t_done)
        self.batches += 1.0 / req.batch_size
        return True

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def batch_mean(self) -> float:
        return len(self.latency_ms) / self.batches if self.batches else 0.0

    def windowed_latency(self) -> Tuple[float, float]:
        """Medians over ``WINDOW_S`` windows of (answered p50, offered p90).

        A window is judged by the requests due in it; the median over
        windows keeps a few seconds of host contention from moving the
        whole run's figure.
        """
        p50s, p90s = [], []
        for values in self.windows.values():
            answered = [v for v in values if v is not None]
            p50, p90 = offered_latencies(answered, len(values) - len(answered), P90_LIMIT_MS)
            p50s.append(p50)
            p90s.append(p90)
        return statistics.median(p50s), statistics.median(p90s)

    def add_rates(self, t0: float, t1: float) -> None:
        """Answers per second in each ``WINDOW_S`` window of [t0, t1].

        Each window is stretched to start and end at an answer, so it
        spans whole batches and the rate is not rounded to a count.  A
        span shorter than one window counts as one window.
        """
        done = sorted(t for t in self.done_at if t0 <= t <= t1)
        edges = [t0 + k * WINDOW_S for k in range(int((t1 - t0) // WINDOW_S) + 1)]
        if len(edges) < 2:
            edges = [t0, t1]
        for lo, hi in zip(edges, edges[1:]):
            a, b = bisect.bisect_left(done, lo), bisect.bisect_left(done, hi)
            if b < len(done) and b > a:
                self.rates.append((b - a) / (done[b] - done[a]))
            elif b == len(done) and b - a > 1:
                self.rates.append((b - a - 1) / (done[b - 1] - done[a]))


def _submit(server, image, phase: _Phase, errors, window: Tuple[int, int]):
    try:
        return server.submit(image)
    except errors as exc:
        phase.fail(exc, window)
        return None


def run(ctx: Context, root: Path) -> Result:
    from repro.common.errors import ServeError
    from repro.serve import (
        InferenceServer,
        ServedModel,
        ServerConfig,
        poisson_arrivals,
        synthetic_images,
    )

    rng = np.random.default_rng(derive_seed(ctx.seed, 0))
    w = rng.standard_normal((CHANNELS, CHANNELS, 3, 3)) * math.sqrt(2.0 / (9 * CHANNELS))
    bias = rng.standard_normal(CHANNELS) * 0.1
    model = ServedModel.conv(w, IMAGE_HW, bias=bias, activation="relu", name="conv32")
    config = ServerConfig(
        max_batch=16, max_wait_s=0.002, queue_depth=QUEUE_DEPTH, workers=1, plan_cache=False
    )
    server = InferenceServer(model, config)
    server.start()
    setup_s = time.perf_counter() - ctx.t_start
    if ctx.setup_only:
        server.close()
        return Result(setup_s)
    warm_s = warm_measured = 0.0
    if ctx.tracer is not None:
        from repro.telemetry import current_telemetry

        warm_s = ctx.tracer.stats("pool.warm").total_s
        warm_measured = current_telemetry().counters.get("tune.measurements")

    cycles = TINY_CYCLES if ctx.tiny else CYCLES
    phase_s = ctx.seconds / (2 * cycles)
    images = synthetic_images(IMAGE_POOL, model.input_shape, seed=derive_seed(ctx.seed, 1))
    unit_arrivals = poisson_arrivals(
        int(ctx.seconds * MAX_RPS) + 16, 1.0, seed=derive_seed(ctx.seed, 2)
    )
    check_pool = TINY_CHECK_POOL if ctx.tiny else CHECK_POOL
    check_ids = set(
        np.random.default_rng(derive_seed(ctx.seed, 3))
        .choice(check_pool, size=min(CHECK_SAMPLE, check_pool), replace=False)
        .tolist()
    )
    kept: Dict[int, np.ndarray] = {}
    errors = (ServeError,)
    pending: deque = deque()
    saturated = _Phase()
    half = _Phase()

    def harvest(phase: _Phase, block: bool) -> None:
        while pending and (block or pending[0][1].done):
            i, req, due, window = pending.popleft()
            if phase.finish(req, due, window) and phase is half and i in check_ids:
                kept[i] = req.result().copy()  # not a view pinning its batch

    n = i = 0  # requests sent in the saturation / half-load sub-phases
    rates = []
    if ctx.tracer is not None:
        ctx.tracer.start_window()
    t0 = time.perf_counter()
    for cycle in range(cycles):
        # -- saturation: the capacity right now -----------------------------
        ts0 = time.perf_counter()
        end = ts0 + phase_s
        while time.perf_counter() < end:
            while server.batcher.depth() < SAT_DEPTH:
                saturated.offered += 1
                t_sub = time.perf_counter()
                window = (cycle, int((t_sub - ts0) // WINDOW_S))
                req = _submit(server, images[n % IMAGE_POOL], saturated, errors, window)
                n += 1
                if req is None:
                    break
                pending.append((n, req, t_sub, window))
            harvest(saturated, block=False)
            time.sleep(POLL_S)
        ts1 = time.perf_counter()
        harvest(saturated, block=True)
        rates_before = len(saturated.rates)
        saturated.add_rates(ts0, ts1)
        rate = LOAD_FRACTION * statistics.median(saturated.rates[rates_before:])
        rates.append(rate)

        # -- half load: open-loop Poisson at a share of that capacity -------
        th0 = time.perf_counter()
        base = unit_arrivals[i]
        while i < len(unit_arrivals) and (unit_arrivals[i] - base) / rate < phase_s:
            due = th0 + (unit_arrivals[i] - base) / rate
            harvest(half, block=False)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            half.lag_ms.append((time.perf_counter() - due) * 1e3)
            half.offered += 1
            window = (cycle, int((due - th0) // WINDOW_S))
            req = _submit(server, images[i % IMAGE_POOL], half, errors, window)
            if req is not None:
                pending.append((i, req, due, window))
            i += 1
        harvest(half, block=True)
    wall = time.perf_counter() - t0
    if ctx.tracer is not None:
        ctx.tracer.stop_window()
    saturated_rps = statistics.median(saturated.rates)

    # -- output checks (untimed) ------------------------------------------
    reference_ok = all(
        np.allclose(out, model.reference_forward(images[i % IMAGE_POOL][None])[0],
                    rtol=1e-9, atol=1e-9)
        for i, out in kept.items()
    )
    bit_ids = sorted(kept)[:BIT_SAMPLE]
    bit_ok = all(
        np.array_equal(kept[i], server.pool.run_batch(images[i % IMAGE_POOL][None])[0])
        for i in bit_ids
    )
    server.close()

    digest = hashlib.sha256()
    for i in sorted(kept):
        digest.update(kept[i].tobytes())
    failed = half.failed + saturated.failed
    failures = {
        kind: half.failures.get(kind, 0) + saturated.failures.get(kind, 0)
        for kind in set(half.failures) | set(saturated.failures)
    }
    p50, p90 = half.windowed_latency()
    offered_ms = half.latency_ms + [10.0 * P90_LIMIT_MS] * half.failed
    return Result(
        setup_s=setup_s,
        wall_s=wall,
        ops_per_s=saturated_rps,
        p50_ms=p50,
        p90_ms=p90,
        op_count=half.offered,
        attempted=half.offered + saturated.offered,
        failed=failed,
        checks=[
            Check(
                "sampled answers allclose to ServedModel.reference_forward",
                reference_ok and len(kept) == len(check_ids),
                f"{len(kept)}/{len(check_ids)} sampled answers, rtol=atol=1e-9",
            ),
            Check(
                "sampled answers bit-identical to batch-of-one on the warm pool",
                bit_ok and len(bit_ids) == min(BIT_SAMPLE, len(check_ids)),
                f"{len(bit_ids)} answers re-run alone",
            ),
            Check(
                f"half-load p90 within the {P90_LIMIT_MS:g} ms limit",
                p90 <= P90_LIMIT_MS,
                f"p90 {p90:.2f} ms over {half.offered} offered requests",
            ),
        ],
        ledger={"answers_sha256": digest.hexdigest(), "answers_checked": len(kept)},
        layers={
            "batcher.queue_p50_ms": percentile(half.queue_ms, 50.0),
            "batcher.queue_p90_ms": percentile(half.queue_ms, 90.0),
            "batcher.batch_mean.half": half.batch_mean,
            "batcher.batch_mean.sat": saturated.batch_mean,
            "server.dispatch_p90_ms": percentile(half.dispatch_ms, 90.0),
            "server.resolve_p90_ms": percentile(half.resolve_ms, 90.0),
            "server.p99_ms": percentile(offered_ms, 99.0),
            "server.rejected": failures.get("QueueFullError", 0),
            "server.shed": failures.get("ShedError", 0) + failures.get("BreakerOpenError", 0),
            "server.deadline_misses": failures.get("DeadlineExceededError", 0),
            "server.errors": failed
            - failures.get("QueueFullError", 0)
            - failures.get("ShedError", 0)
            - failures.get("BreakerOpenError", 0)
            - failures.get("DeadlineExceededError", 0),
            "loadgen.lag_p90_ms": percentile(half.lag_ms, 90.0),
            "loadgen.lag_max_ms": max(half.lag_ms, default=0.0),
            "pool.warm_s": warm_s,
            "pool.warm_tune_measured": warm_measured,
        },
        busy_thread="serve-worker-0",
        notes=[
            f"half load, {mean(rates):.1f} req/s on average: {half.offered} offered, "
            f"{len(half.latency_ms)} answered, mean batch {half.batch_mean:.2f}; "
            f"whole phase p50 {percentile(half.latency_ms, 50.0):.2f} ms, p90 "
            f"{percentile(offered_ms, 90.0):.2f} ms, p99 {percentile(offered_ms, 99.0):.2f} ms",
            f"saturation: {saturated.offered} offered, {len(saturated.latency_ms)} "
            f"answered in {cycles} x {phase_s:.2f} s, mean batch "
            f"{saturated.batch_mean:.2f}",
            f"failures by type: {failures or 'none'}; mean lag "
            f"{mean(half.lag_ms):.3f} ms",
        ],
    )
