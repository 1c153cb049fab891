#!/usr/bin/env python
"""Use swDNN through its cuDNN-style handle/descriptor API.

Mirrors the workflow a framework integration (Caffe/TensorFlow, as the
paper's Section II describes for cuDNN) would follow: create a handle,
describe tensors, query the ranked algorithm list and workspace size, then
run forward and both backward passes.

Run:  python examples/swdnn_api.py
"""

import numpy as np

from repro.api import (
    FilterDescriptor,
    SwDNNHandle,
    TensorDescriptor,
)
from repro.api.descriptors import ConvolutionDescriptor, output_descriptor


def main() -> None:
    handle = SwDNNHandle()
    rng = np.random.default_rng(0)

    # Describe one training layer.
    x_desc = TensorDescriptor(n=16, c=32, h=18, w=18)
    w_desc = FilterDescriptor(k=32, c=32, kh=3, kw=3)
    conv_desc = ConvolutionDescriptor()
    y_desc = output_descriptor(x_desc, w_desc, conv_desc)
    print(f"layer: input {x_desc.shape} * filter {w_desc.shape} "
          f"-> output {y_desc.shape}")

    # Algorithm search (the cudnnFindConvolutionForwardAlgorithm analogue).
    print("\nranked algorithms:")
    for perf in handle.find_algorithms(x_desc, w_desc, conv_desc):
        print(f"  {perf}")
    workspace = handle.get_workspace_bytes(x_desc, w_desc, conv_desc)
    print(f"workspace (LDM per CPE): {workspace} bytes of 65536")

    # Forward.
    x = rng.standard_normal(x_desc.shape)
    w = rng.standard_normal(w_desc.shape)
    y, fwd = handle.convolution_forward(x, w, x_desc=x_desc, w_desc=w_desc)
    print(f"\nforward:         {fwd.gflops:7.1f} Gflops "
          f"({fwd.tiles} tiles, overlap {fwd.overlap_fraction * 100:.0f}%)")

    # Backward (training): gradients w.r.t. data and filters.
    grad_y = rng.standard_normal(y.shape)
    grad_x, bwd_d = handle.convolution_backward_data(w, grad_y, x_desc)
    grad_w, bwd_f = handle.convolution_backward_filter(x, grad_y, w_desc)
    print(f"backward data:   {bwd_d.gflops:7.1f} Gflops -> grad_x {grad_x.shape}")
    print(f"backward filter: {bwd_f.gflops:7.1f} Gflops -> grad_w {grad_w.shape}")

    # Fully-connected layers go through swGEMM on the same handle.
    a = rng.standard_normal((256, 512))
    b = rng.standard_normal((512, 128))
    c, gemm = handle.gemm(a, b)
    print(f"FC gemm 256x512x128: {gemm.gflops:7.1f} Gflops "
          f"(max error vs numpy: {np.max(np.abs(c - a @ b)):.2e})")

    # Plans are cached across invocations (the training-loop fast path).
    handle.convolution_forward(x, w)
    print(f"\ncached plans after repeat invocation: {handle.cached_plans}")


if __name__ == "__main__":
    main()
