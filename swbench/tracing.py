"""Layer spans for traced runs, recorded around the library's public callables.

A traced run patches each layer's public entry points (module functions or
class methods) with a thin wrapper that times the call on the calling
thread.  A thread-local stack turns the nested calls into *self* time: a
span's duration minus the durations of the spans it directly contains.
Nothing inside ``src/`` is changed; :meth:`Tracer.uninstall` restores every
patched attribute.

Only time inside the measurement window counts (``start_window`` /
``stop_window``); a span that straddles an edge is clipped to it.
Statistics are aggregated as the calls happen (call count, inclusive and
self seconds, per-thread self seconds), so a sweep that scores thousands of
candidates keeps a few dozen numbers, not a span list.  Layers named in
``SAMPLED_LAYERS`` also keep each call's duration, for percentiles.
"""

from __future__ import annotations

import importlib
import math
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: (layer, "module[:Class]", attribute) for every wrapped entry point.  A
#: layer may own several entry points; their spans add up under its name.
LAYER_ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("planner", "repro.core.planner", "plan_convolution"),
    ("tune", "repro.tune", "autotune"),
    ("tune", "repro.tune.tuner", "autotune"),
    ("perf", "repro.core.plans:ConvPlan", "estimate"),
    ("perf", "repro.tune.tuner", "score_candidate"),
    ("isa", "repro.isa.kernels", "kernel_execution_efficiency"),
    ("engine.evaluate", "repro.core.conv:ConvolutionEngine", "evaluate"),
    ("engine.run", "repro.core.conv:ConvolutionEngine", "run"),
    ("guarded", "repro.core.guarded:GuardedConvolutionEngine", "run"),
    ("batcher", "repro.serve.batcher:DynamicBatcher", "next_batch"),
    ("pool", "repro.serve.pool:WarmEnginePool", "run_batch"),
    ("pool.warm", "repro.serve.pool:WarmEnginePool", "warm"),
    ("network.forward", "repro.core.network:Sequential", "forward"),
    ("network.backward", "repro.core.network:Sequential", "backward"),
    ("sgd", "repro.core.network:SGD", "step"),
    ("mesh", "repro.core.register_comm:MeshGemm", "multiply"),
    ("exchange", "repro.scale.cluster", "reduce_micro_gradients"),
    ("cluster", "repro.scale.cluster:ClusterTrainer", "step"),
)

#: Layers whose per-call durations are kept (pool execute percentiles).
SAMPLED_LAYERS = frozenset({"pool"})

#: Called as ``hook(layer, args, result, seconds)`` after each recorded call.
Hook = Callable[[str, tuple, object, float], None]


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s", "samples")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.samples: List[float] = []


class Tracer:
    """Patches the layer entry points and aggregates their spans."""

    def __init__(self) -> None:
        #: Spans are clipped to [since, until] (see start/stop_window).
        self._since = -math.inf
        self._until = math.inf
        self._stats: Dict[str, LayerStats] = defaultdict(LayerStats)
        self._self_by_thread: Dict[str, float] = defaultdict(float)
        self._hooks: Dict[str, List[Hook]] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> "Tracer":
        for layer, where, attr in LAYER_ENTRY_POINTS:
            module_name, _, class_name = where.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(layer, original))
            self._patched.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def on_exit(self, layer: str, hook: Hook) -> None:
        self._hooks[layer].append(hook)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            frame = [0.0]  # in-window seconds of directly nested spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                seconds = max(0.0, min(end, tracer._until) - max(start, tracer._since))
                stack.pop()
                if stack:
                    stack[-1][0] += seconds
            if seconds > 0.0:
                tracer._record(layer, seconds, seconds - frame[0])
                for hook in tracer._hooks.get(layer, ()):
                    hook(layer, args, result, seconds)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _record(self, layer: str, seconds: float, self_seconds: float) -> None:
        thread = threading.current_thread().name
        with self._lock:
            stats = self._stats[layer]
            stats.calls += 1
            stats.total_s += seconds
            stats.self_s += self_seconds
            if layer in SAMPLED_LAYERS:
                stats.samples.append(seconds)
            self._self_by_thread[thread] += self_seconds

    # -- reading ------------------------------------------------------------

    def start_window(self) -> None:
        """Forget everything so far; from now on count only in-window time.

        A span in flight when the window opens (a worker already waiting
        for work) counts only its part inside the window.
        """
        with self._lock:
            self._stats.clear()
            self._self_by_thread.clear()
            self._since = time.perf_counter()
            self._until = math.inf

    def stop_window(self) -> None:
        """Close the window: later time (checks, replays) is not counted."""
        self._until = time.perf_counter()

    def stats(self, layer: str) -> LayerStats:
        with self._lock:
            return self._stats.get(layer) or LayerStats()

    def self_seconds_on(self, thread_name: str) -> float:
        """Summed layer self time recorded on one thread."""
        with self._lock:
            return self._self_by_thread.get(thread_name, 0.0)
