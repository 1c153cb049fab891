"""Auxiliary streaming operators: pooling, activation, bias.

The extractor layers of a CNN (Section III-A) interleave convolutions with
subsampling and nonlinearities.  Unlike convolution these do O(1) flops per
element, so on SW26010 they are purely bandwidth-bound streaming kernels:
DMA a tile in, apply the elementwise/window op at LDM speed, DMA the result
out.  Their time model is therefore just traffic over the Table II curve —
but that still matters for end-to-end layer-stack estimates, where the
paper's >90% "convolution share" claim can be checked rather than assumed.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.common.errors import PlanError
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.perf.dma_model import DMAStream, blended_mbw
from repro.core.conv import TimingReport


def _streaming_report(
    bytes_in: int,
    bytes_out: int,
    flops: int,
    block_bytes: int,
    spec: SW26010Spec,
) -> TimingReport:
    """Timing of a one-pass streaming kernel: traffic-dominated."""
    streams = [
        DMAStream("in", float(bytes_in), block_bytes, "get"),
        DMAStream("out", float(bytes_out), block_bytes, "put"),
    ]
    mbw = blended_mbw(streams)
    dma_seconds = (bytes_in + bytes_out) / mbw
    compute_seconds = flops / spec.peak_flops_per_cg if flops else 0.0
    seconds = max(dma_seconds, compute_seconds)
    return TimingReport(
        seconds=seconds,
        flops=flops,
        dma_seconds=dma_seconds,
        compute_seconds=compute_seconds,
        bytes_get=bytes_in,
        bytes_put=bytes_out,
        tiles=0,
        peak_flops=spec.peak_flops_per_cg,
    )


def avg_pool_forward(
    x: np.ndarray, size: int = 2, spec: SW26010Spec = DEFAULT_SPEC
) -> Tuple[np.ndarray, TimingReport]:
    """Non-overlapping average pooling (the paper's subsampling layer)."""
    if size < 1:
        raise PlanError(f"pool size must be positive, got {size}")
    if x.ndim != 4:
        raise PlanError("pooling expects a 4-D NCHW tensor")
    b, c, h, w = x.shape
    if h % size or w % size:
        raise PlanError(f"pooling {size}x{size} does not divide {h}x{w}")
    out = (
        np.asarray(x, float)
        .reshape(b, c, h // size, size, w // size, size)
        .mean(axis=(3, 5))
    )
    report = _streaming_report(
        bytes_in=x.size * 8,
        bytes_out=out.size * 8,
        flops=x.size,  # one add (amortized) per input element
        block_bytes=w * 8,
        spec=spec,
    )
    return out, report


def relu_forward(
    x: np.ndarray, spec: SW26010Spec = DEFAULT_SPEC
) -> Tuple[np.ndarray, TimingReport]:
    """Elementwise ReLU as a streaming kernel."""
    x = np.asarray(x, float)
    out = np.maximum(x, 0.0)
    block = (x.shape[-1] if x.ndim else 1) * 8
    report = _streaming_report(
        bytes_in=x.size * 8,
        bytes_out=out.size * 8,
        flops=x.size,
        block_bytes=max(8, block),
        spec=spec,
    )
    return out, report


def bias_forward(
    x: np.ndarray, bias: np.ndarray, spec: SW26010Spec = DEFAULT_SPEC
) -> Tuple[np.ndarray, TimingReport]:
    """Per-channel bias add for NCHW tensors."""
    x = np.asarray(x, float)
    bias = np.asarray(bias, float)
    if x.ndim != 4 or bias.ndim != 1 or bias.shape[0] != x.shape[1]:
        raise PlanError(
            f"bias_forward expects NCHW x and per-channel bias; got "
            f"{x.shape} and {bias.shape}"
        )
    out = x + bias[None, :, None, None]
    report = _streaming_report(
        bytes_in=x.size * 8 + bias.size * 8,
        bytes_out=out.size * 8,
        flops=x.size,
        block_bytes=x.shape[-1] * 8,
        spec=spec,
    )
    return out, report


def convolution_time_share(
    conv_report: TimingReport, aux_reports: list
) -> float:
    """Fraction of a layer block's time spent in the convolution.

    The paper: "In most of CNNs, the convolution operator takes the
    majority of computing time (over 90%)" — this helper lets the layer
    stack check that claim against its own timed reports.
    """
    total = conv_report.seconds + sum(r.seconds for r in aux_reports)
    if total <= 0:
        raise PlanError("reports carry no time")
    return conv_report.seconds / total
