"""The cluster-side half of the gradient-exchange contract.

:class:`~repro.core.network.SGD` routes per-layer gradients through a
:class:`~repro.core.network.GradientExchange` before applying them; this
module provides the data-parallel implementation.  Two pieces:

* :func:`exact_sum` / :func:`reduce_micro_gradients` — the collective's
  *numerics*.  Each micro-batch's gradient is summed elementwise with
  ``math.fsum``, which returns the **correctly rounded** true sum.  Exact
  rounding makes the reduction independent of grouping and order, so the
  reduced gradient is bit-identical no matter how many nodes computed the
  partials or which topology moved them — the property the N-node vs
  1-node parity test rests on.  (Real deterministic collectives fix a
  canonical reduction order for the same reason; the simulator goes one
  step further and makes the result order-*free*.)  Topology choice
  affects the simulated *time* of the collective, never its value.
* :class:`ClusterExchange` — the per-replica adapter.  The cluster
  trainer stages the reduced per-layer gradients once per step; every
  replica's optimizer then swaps its local gradients for the staged ones,
  so all replicas apply the identical update and stay in bitwise
  lockstep.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.common.errors import PlanError
from repro.core.network import GradientExchange, LayerGrads


def exact_sum(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise, correctly-rounded sum of same-shaped float64 arrays.

    ``math.fsum`` tracks the exact partial sum internally and rounds once
    at the end, so the result is the true sum's nearest float64 —
    independent of the number of terms, their order, or any grouping into
    per-node partials.  A single-term "sum" is returned unchanged (exact),
    which is what makes the one-node cluster degenerate bit-for-bit into
    plain single-node SGD.

    Two terms need no ``fsum`` pass: IEEE addition of two doubles already
    rounds their exact sum correctly.  It differs from ``fsum`` only where
    the sum is zero or not finite.  Two finite doubles sum to zero only
    where they cancel exactly, and ``fsum`` returns ``+0.0`` there whatever
    the zeros' signs (``-0.0 + -0.0`` included), so those entries are set
    in one array operation.  Only the non-finite entries are summed again
    with ``fsum``, in flat order: it raises on overflow and on ``inf - inf``.
    """
    if not arrays:
        raise PlanError("exact_sum needs at least one array")
    first = np.asarray(arrays[0], dtype=np.float64)
    if len(arrays) == 1:
        return first.copy()
    if len(arrays) == 2:
        return _exact_sum_pair(first, np.asarray(arrays[1], dtype=np.float64))
    stacked = np.stack([np.asarray(a, dtype=np.float64) for a in arrays])
    flat = stacked.reshape(len(arrays), -1)
    out = np.empty(flat.shape[1], dtype=np.float64)
    for i in range(flat.shape[1]):
        out[i] = math.fsum(flat[:, i])
    return out.reshape(first.shape)


def _exact_sum_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``fsum`` of two same-shaped arrays, elementwise (see :func:`exact_sum`)."""
    if a.shape != b.shape:
        raise ValueError(
            f"all input arrays must have the same shape, got {a.shape} and {b.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # fsum decides those
        out = np.add(a, b, out=np.empty(a.shape))
    # +0.0 turns a -0.0 sum into fsum's +0.0 and leaves every other value.
    out += 0.0
    flat = out.reshape(-1)
    redo = np.flatnonzero(~np.isfinite(flat))
    if redo.size:
        flat_a = a.reshape(-1)
        flat_b = b.reshape(-1)
        for i in redo:
            flat[i] = math.fsum((flat_a[i], flat_b[i]))
    return out


def reduce_micro_gradients(micro_grads: Sequence[LayerGrads]) -> LayerGrads:
    """Reduce per-micro-batch layer gradients to the global ones.

    ``micro_grads[j]`` is micro-batch ``j``'s per-layer gradient list (one
    ``name -> array`` dict per parameter layer).  Each micro-batch's loss
    head already normalizes by the *global* batch size (see
    ``SoftmaxCrossEntropy(grad_normalizer=...)``), so the exact sum over
    micro-batches *is* the global mean gradient — no trailing rescale, no
    extra rounding step.
    """
    if not micro_grads:
        raise PlanError("reduce_micro_gradients needs at least one partial")
    n_layers = len(micro_grads[0])
    for partial in micro_grads:
        if len(partial) != n_layers:
            raise PlanError(
                f"partials disagree on layer count: {len(partial)} vs {n_layers}"
            )
    reduced: LayerGrads = []
    for li in range(n_layers):
        names = micro_grads[0][li].keys()
        reduced.append(
            {
                name: exact_sum([partial[li][name] for partial in micro_grads])
                for name in names
            }
        )
    return reduced


class ClusterExchange(GradientExchange):
    """Replica-side exchange: local gradients out, reduced gradients in.

    One instance is shared by every replica's optimizer.  The trainer
    calls :meth:`stage` with the step's reduced gradients before invoking
    the optimizers; each ``SGD.step()`` then receives the staged list from
    :meth:`reduce` regardless of its own replica's local gradients (the
    local contribution was already folded in by the collective).  Calling
    :meth:`reduce` outside a staged step is an error — a replica must
    never silently train on un-exchanged gradients.
    """

    def __init__(self) -> None:
        self._staged: Optional[LayerGrads] = None

    def stage(self, reduced: LayerGrads) -> None:
        self._staged = reduced

    def clear(self) -> None:
        self._staged = None

    def reduce(self, grads: LayerGrads) -> LayerGrads:
        if self._staged is None:
            raise PlanError(
                "ClusterExchange.reduce called outside a cluster step — "
                "no reduced gradients are staged"
            )
        if len(grads) != len(self._staged):
            raise PlanError(
                f"replica has {len(grads)} parameter layers but "
                f"{len(self._staged)} reduced gradient sets are staged"
            )
        return self._staged

    def describe(self) -> str:
        state = "staged" if self._staged is not None else "idle"
        return f"ClusterExchange({state})"
