"""Trainable layers over the swDNN convolution kernels.

The paper positions swDNN as a library "to accelerate deep learning
applications (especially focused on the training part)".  This module
provides the layer zoo a CNN training loop needs — convolution (running
through the simulated SW26010 plan for its forward pass), pooling, ReLU,
fully-connected, softmax cross-entropy — each with a backward pass
validated against numeric gradients.

Layers operate on canonical (B, C, H, W) tensors in double precision (the
precision the paper evaluates).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.common.errors import PlanError
from repro.core.conv import ConvolutionEngine
from repro.core.params import ConvParams
from repro.core.reference import conv2d_backward_reference, conv2d_reference


class Layer:
    """Base layer: forward/backward plus parameter access for the optimizer."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> Dict[str, np.ndarray]:
        """Trainable tensors by name (shared, mutated in place)."""
        return {}

    def gradients(self) -> Dict[str, np.ndarray]:
        """Gradients from the last backward, matching :meth:`parameters`."""
        return {}

    def notify_parameter_update(self) -> None:
        """Hook: the optimizer mutated this layer's parameters in place.

        Layers that memoize anything derived from their parameters (packed
        filter layouts, certified operands) invalidate it here; the base
        implementation is a no-op so parameter-free layers need nothing.
        """


class Conv2D(Layer):
    """Convolution layer backed by the simulated swDNN kernel.

    ``engine="simulated"`` runs the forward pass through the planned tile
    schedule on the simulated core group (identical numerics, exercised end
    to end); ``engine="reference"`` calls the NumPy oracle directly, which
    is what the training examples use for speed.  ``backend`` selects the
    simulated engine's execution tier (``"numpy"``, ``"mesh"``,
    ``"mesh-fast"``); engines are cached per input shape, so training loops
    that feed the same shape every batch plan once and — with
    ``"mesh-fast"`` — verify the bus protocol once.  ``autotune=True``
    replaces the heuristic planner with the measured search of
    :mod:`repro.tune`; ``plan_cache`` names its on-disk cache directory
    (implies autotuning); ``algorithms`` opts the tuned search into the
    conv algorithm zoo (``"all"`` or a subset of
    :data:`repro.core.algorithms.ALGORITHMS` — requires autotuning, since
    only the measured search can justify a lowered plan).  Backward always
    uses the reference gradients.
    """

    def __init__(
        self,
        ni: int,
        no: int,
        kr: int,
        kc: int,
        rng: Optional[np.random.Generator] = None,
        engine: str = "reference",
        backend: str = "numpy",
        autotune: bool = False,
        plan_cache=None,
        algorithms=None,
    ):
        if engine not in ("reference", "simulated"):
            raise PlanError(f"unknown conv engine {engine!r}")
        if algorithms is not None and not (autotune or plan_cache is not None):
            raise PlanError(
                "algorithms= requires autotune=True (the heuristic planner "
                "only plans the direct mapping)"
            )
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / (ni * kr * kc))
        self.w = rng.standard_normal((no, ni, kr, kc)) * scale
        self.bias = np.zeros(no)
        self.engine = engine
        self.backend = backend
        self.autotune = autotune or plan_cache is not None
        self.plan_cache = plan_cache
        self.algorithms = algorithms
        self._x: Optional[np.ndarray] = None
        self._grad_w: Optional[np.ndarray] = None
        self._grad_b: Optional[np.ndarray] = None
        self._engine_cache: Dict[ConvParams, ConvolutionEngine] = {}
        # Weight-layout version: bumped on every in-place parameter update
        # so the engines' memoized filter packs invalidate (repeated
        # inference on frozen weights packs exactly once).
        self._w_version = 0

    def notify_parameter_update(self) -> None:
        self._w_version += 1

    def _simulated_engine(self, params: ConvParams) -> ConvolutionEngine:
        engine = self._engine_cache.get(params)
        if engine is None:
            if self.autotune:
                from repro.tune import autotune as tune

                cache = self.plan_cache if self.plan_cache is not None else False
                plan = tune(params, cache=cache, algorithms=self.algorithms).plan
            else:
                from repro.core.planner import plan_convolution

                plan = plan_convolution(params).plan
            from repro.core.algorithms import engine_for_plan

            engine = engine_for_plan(plan, backend=self.backend)
            self._engine_cache[params] = engine
        return engine

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = np.asarray(x, dtype=np.float64)
        if self.engine == "simulated":
            b, ni, ri, ci = self._x.shape
            no, _, kr, kc = self.w.shape
            params = ConvParams(ni=ni, no=no, ri=ri, ci=ci, kr=kr, kc=kc, b=b)
            out, _ = self._simulated_engine(params).run(
                self._x, self.w, filter_version=self._w_version
            )
        else:
            out = conv2d_reference(self._x, self.w)
        return out + self.bias[None, :, None, None]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise PlanError("backward called before forward")
        grad_x, grad_w = conv2d_backward_reference(self._x, self.w, grad)
        self._grad_w = grad_w
        self._grad_b = grad.sum(axis=(0, 2, 3))
        return grad_x

    def parameters(self) -> Dict[str, np.ndarray]:
        return {"w": self.w, "bias": self.bias}

    def gradients(self) -> Dict[str, np.ndarray]:
        if self._grad_w is None or self._grad_b is None:
            raise PlanError("gradients requested before backward")
        return {"w": self._grad_w, "bias": self._grad_b}


class ReLU(Layer):
    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise PlanError("backward called before forward")
        return grad * self._mask


class AvgPool2D(Layer):
    """Non-overlapping average pooling (the paper's subsampling layer)."""

    def __init__(self, size: int = 2):
        if size < 1:
            raise ValueError(f"pool size must be positive, got {size}")
        self.size = size
        self._in_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        b, c, h, w = x.shape
        s = self.size
        if h % s != 0 or w % s != 0:
            raise PlanError(f"pooling {s}x{s} does not divide {h}x{w}")
        self._in_shape = x.shape
        return x.reshape(b, c, h // s, s, w // s, s).mean(axis=(3, 5))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._in_shape is None:
            raise PlanError("backward called before forward")
        b, c, h, w = self._in_shape
        s = self.size
        expanded = np.repeat(np.repeat(grad, s, axis=2), s, axis=3)
        return expanded / (s * s)


class Flatten(Layer):
    def __init__(self) -> None:
        self._in_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._in_shape is None:
            raise PlanError("backward called before forward")
        return grad.reshape(self._in_shape)


class Dense(Layer):
    """Fully-connected layer (the classifier part of the CNN)."""

    def __init__(
        self, in_features: int, out_features: int, rng: Optional[np.random.Generator] = None
    ):
        rng = rng or np.random.default_rng(0)
        self.w = rng.standard_normal((in_features, out_features)) * np.sqrt(
            2.0 / in_features
        )
        self.bias = np.zeros(out_features)
        self._x: Optional[np.ndarray] = None
        self._grad_w: Optional[np.ndarray] = None
        self._grad_b: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = np.asarray(x, dtype=np.float64)
        return self._x @ self.w + self.bias

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise PlanError("backward called before forward")
        self._grad_w = self._x.T @ grad
        self._grad_b = grad.sum(axis=0)
        return grad @ self.w.T

    def parameters(self) -> Dict[str, np.ndarray]:
        return {"w": self.w, "bias": self.bias}

    def gradients(self) -> Dict[str, np.ndarray]:
        if self._grad_w is None or self._grad_b is None:
            raise PlanError("gradients requested before backward")
        return {"w": self._grad_w, "bias": self._grad_b}


class SoftmaxCrossEntropy:
    """Loss head: softmax + cross entropy with integer labels.

    ``grad_normalizer`` overrides the batch size the backward pass divides
    by.  The default (``None``) normalizes by the batch actually seen —
    classic mean-loss SGD.  A data-parallel replica processing a shard of a
    larger global batch sets it to the *global* batch size, so summing the
    shards' gradients yields exactly the global mean gradient with no
    trailing rescale (the rescale would round differently than the
    single-node computation and break bitwise parity).
    """

    def __init__(self, grad_normalizer: Optional[int] = None) -> None:
        if grad_normalizer is not None and grad_normalizer < 1:
            raise ValueError(
                f"grad_normalizer must be positive, got {grad_normalizer}"
            )
        self.grad_normalizer = grad_normalizer
        self._probs: Optional[np.ndarray] = None
        self._labels: Optional[np.ndarray] = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        logits = np.asarray(logits, dtype=np.float64)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        self._probs = probs
        self._labels = np.asarray(labels)
        n = logits.shape[0]
        return float(-np.log(probs[np.arange(n), self._labels] + 1e-300).mean())

    def backward(self) -> np.ndarray:
        if self._probs is None or self._labels is None:
            raise PlanError("backward called before forward")
        n = self._probs.shape[0]
        grad = self._probs.copy()
        grad[np.arange(n), self._labels] -= 1.0
        denom = self.grad_normalizer if self.grad_normalizer is not None else n
        return grad / denom
