"""Backward convolution passes on the simulated SW26010.

swDNN is a *training* library ("especially focused on the training part",
Section I), so beyond the forward kernel the layer needs the two backward
convolutions.  Both reduce to the same blocked-GEMM structure the forward
plans implement, via standard algebraic identities:

* **backward-data** (dL/dx): a *full* correlation of the output gradient
  with the spatially-flipped, channel-transposed filters —
  ``grad_x = conv(pad(grad_out, Kr-1, Kc-1), flip(W).T)``.  The padded
  gradient plays the input role, so the existing plans run it unchanged.
* **backward-filter** (dL/dw): a correlation of the input with the output
  gradient where the *batch* plays the reduction role —
  ``grad_w[o, n, kr, kc] = sum_b x[b, n, kr:, kc:] . grad_out[b, o]``.
  Expressed as a forward convolution by treating the batch as channels:
  inputs (Ni, B, Ri, Ci) convolved with filters (No, B, Ro, Co) yield
  (Ni, No, Kr, Kc) — again the existing machinery executes it.

Each pass returns both the numeric result (validated against
:func:`repro.core.reference.conv2d_backward_reference`) and the timed
:class:`~repro.core.conv.TimingReport` of its underlying plan execution.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.common.errors import PlanError
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.core.conv import ConvolutionEngine, TimingReport
from repro.core.params import ConvParams
from repro.core.planner import plan_convolution


def _pad_spatial(grad_out: np.ndarray, pad_r: int, pad_c: int) -> np.ndarray:
    return np.pad(
        grad_out, ((0, 0), (0, 0), (pad_r, pad_r), (pad_c, pad_c)), mode="constant"
    )


def backward_data_params(params: ConvParams) -> ConvParams:
    """Forward-equivalent parameters of the backward-data pass."""
    return ConvParams(
        ni=params.no,
        no=params.ni,
        ri=params.ro + 2 * (params.kr - 1),
        ci=params.co + 2 * (params.kc - 1),
        kr=params.kr,
        kc=params.kc,
        b=params.b,
    )


def backward_filter_params(params: ConvParams) -> ConvParams:
    """Forward-equivalent parameters of the backward-filter pass.

    Batch becomes the reduction channel; the "filter" is the output
    gradient of spatial size Ro x Co; the "output" is Kr x Kc.
    """
    return ConvParams(
        ni=params.b,
        no=params.no,
        ri=params.ri,
        ci=params.ci,
        kr=params.ro,
        kc=params.co,
        b=params.ni,
    )


class BackwardConvolution:
    """Executes dL/dx and dL/dw through the forward plan machinery.

    ``backend`` selects the execution tier of the underlying engines
    (``"numpy"``, ``"mesh"``, ``"mesh-fast"``); engines are built once per
    pass and reused, so with ``"mesh-fast"`` the bus-protocol verification
    cost is paid only on the first gradient call per shape.
    """

    def __init__(
        self,
        params: ConvParams,
        spec: SW26010Spec = DEFAULT_SPEC,
        backend: str = "numpy",
    ):
        self.params = params
        self.spec = spec
        self.backend = backend
        self._engines: Dict[str, ConvolutionEngine] = {}

    def _engine(self, pass_name: str, eq: ConvParams) -> ConvolutionEngine:
        engine = self._engines.get(pass_name)
        if engine is None:
            plan = plan_convolution(eq, spec=self.spec).plan
            engine = ConvolutionEngine(plan, spec=self.spec, backend=self.backend)
            self._engines[pass_name] = engine
        return engine

    # -- backward data ---------------------------------------------------

    def grad_input(
        self, w: np.ndarray, grad_out: np.ndarray
    ) -> Tuple[np.ndarray, TimingReport]:
        """dL/dx via full correlation with flipped, transposed filters."""
        p = self.params
        if w.shape != p.filter_shape:
            raise PlanError(f"filter shape {w.shape} != {p.filter_shape}")
        if grad_out.shape != p.output_shape:
            raise PlanError(f"grad_out shape {grad_out.shape} != {p.output_shape}")
        padded = _pad_spatial(np.asarray(grad_out, float), p.kr - 1, p.kc - 1)
        # (No, Ni, Kr, Kc) -> transpose channels, flip both spatial axes.
        w_t = np.ascontiguousarray(
            np.asarray(w, float).transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
        )
        eq = backward_data_params(p)
        grad_x, report = self._engine("data", eq).run(padded, w_t)
        return grad_x, report

    def evaluate_grad_input(self) -> TimingReport:
        """Timed-only backward-data pass."""
        eq = backward_data_params(self.params)
        plan = plan_convolution(eq, spec=self.spec).plan
        return ConvolutionEngine(plan, spec=self.spec).evaluate()

    # -- backward filter ---------------------------------------------------

    def grad_filter(
        self, x: np.ndarray, grad_out: np.ndarray
    ) -> Tuple[np.ndarray, TimingReport]:
        """dL/dw via batch-as-channel correlation."""
        p = self.params
        if x.shape != p.input_shape:
            raise PlanError(f"input shape {x.shape} != {p.input_shape}")
        if grad_out.shape != p.output_shape:
            raise PlanError(f"grad_out shape {grad_out.shape} != {p.output_shape}")
        # Inputs: (B, Ni, Ri, Ci) -> (Ni, B, Ri, Ci); filters: grad_out as
        # (No, B, Ro, Co).
        x_t = np.ascontiguousarray(np.asarray(x, float).transpose(1, 0, 2, 3))
        g_t = np.ascontiguousarray(np.asarray(grad_out, float).transpose(1, 0, 2, 3))
        eq = backward_filter_params(p)
        out, report = self._engine("filter", eq).run(x_t, g_t)
        # out is (Ni, No, Kr, Kc) -> (No, Ni, Kr, Kc).
        grad_w = np.ascontiguousarray(out.transpose(1, 0, 2, 3))
        return grad_w, report

    def evaluate_grad_filter(self) -> TimingReport:
        """Timed-only backward-filter pass."""
        eq = backward_filter_params(self.params)
        plan = plan_convolution(eq, spec=self.spec).plan
        return ConvolutionEngine(plan, spec=self.spec).evaluate()

    # -- whole training step -------------------------------------------------

    def training_step_time(self) -> Tuple[float, dict]:
        """Timed fwd + bwd-data + bwd-filter (one layer's training cost).

        Returns (seconds, per-pass breakdown) — the quantity a training-
        throughput estimate multiplies across layers and iterations.
        """
        forward_plan = plan_convolution(self.params, spec=self.spec).plan
        fwd = ConvolutionEngine(forward_plan, spec=self.spec).evaluate()
        bwd_data = self.evaluate_grad_input()
        bwd_filter = self.evaluate_grad_filter()
        breakdown = {
            "forward": fwd,
            "backward_data": bwd_data,
            "backward_filter": bwd_filter,
        }
        total = fwd.seconds + bwd_data.seconds + bwd_filter.seconds
        return total, breakdown
