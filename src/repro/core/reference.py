"""NumPy reference convolution — the correctness oracle (Listing 1).

Two forward implementations:

* :func:`conv2d_reference` — vectorized (einsum over kernel offsets); used
  by tests and by the layer API as the ground truth every simulated plan
  must match bit-for-bit (same double-precision accumulation order per
  output element is not guaranteed, so comparisons use ``allclose``);
* :func:`conv2d_naive` — the literal seven-loop form of Listing 1, kept for
  cross-validating the vectorized oracle on tiny inputs.

The backward pass (gradients with respect to inputs and filters) supports
the training workloads the paper targets; gradcheck tests validate it
against numeric differentiation.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import ConvParams


def _check_forward_args(x: np.ndarray, w: np.ndarray) -> ConvParams:
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(
            f"expected x as (B, Ni, Ri, Ci) and w as (No, Ni, Kr, Kc); "
            f"got shapes {x.shape} and {w.shape}"
        )
    b, ni, ri, ci = x.shape
    no, ni_w, kr, kc = w.shape
    if ni != ni_w:
        raise ValueError(f"channel mismatch: input has Ni={ni}, filter Ni={ni_w}")
    return ConvParams(ni=ni, no=no, ri=ri, ci=ci, kr=kr, kc=kc, b=b)


def conv2d_reference(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Valid, stride-1, multi-channel batched convolution (correlation form).

    ``x``: (B, Ni, Ri, Ci); ``w``: (No, Ni, Kr, Kc) -> (B, No, Ro, Co).
    """
    p = _check_forward_args(x, w)
    out = np.zeros(p.output_shape, dtype=np.float64)
    for dkr in range(p.kr):
        for dkc in range(p.kc):
            window = x[:, :, dkr : dkr + p.ro, dkc : dkc + p.co]
            out += np.einsum(
                "bnrc,on->borc", window, w[:, :, dkr, dkc], optimize=True
            )
    return out


def conv2d_naive(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The literal 7-loop convolution of Listing 1 (tiny inputs only)."""
    p = _check_forward_args(x, w)
    out = np.zeros(p.output_shape, dtype=np.float64)
    for cb in range(p.b):
        for cno in range(p.no):
            for cro in range(p.ro):
                for cco in range(p.co):
                    acc = 0.0
                    for cni in range(p.ni):
                        for ckr in range(p.kr):
                            for ckc in range(p.kc):
                                acc += (
                                    x[cb, cni, cro + ckr, cco + ckc]
                                    * w[cno, cni, ckr, ckc]
                                )
                    out[cb, cno, cro, cco] = acc
    return out


def conv2d_backward_reference(
    x: np.ndarray, w: np.ndarray, grad_out: np.ndarray
) -> tuple:
    """Gradients of the reference convolution.

    Returns ``(grad_x, grad_w)`` for upstream gradient ``grad_out`` of shape
    (B, No, Ro, Co).
    """
    p = _check_forward_args(x, w)
    if grad_out.shape != p.output_shape:
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match output "
            f"{p.output_shape}"
        )
    grad_x = np.zeros_like(x, dtype=np.float64)
    grad_w = np.zeros_like(w, dtype=np.float64)
    for dkr in range(p.kr):
        for dkc in range(p.kc):
            window = x[:, :, dkr : dkr + p.ro, dkc : dkc + p.co]
            # dL/dw[o, n, dkr, dkc] = sum_{b,r,c} g[b,o,r,c] * x[b,n,r+dkr,c+dkc]
            grad_w[:, :, dkr, dkc] = np.einsum(
                "borc,bnrc->on", grad_out, window, optimize=True
            )
            # dL/dx[b, n, r+dkr, c+dkc] += sum_o g[b,o,r,c] * w[o,n,dkr,dkc]
            grad_x[:, :, dkr : dkr + p.ro, dkc : dkc + p.co] += np.einsum(
                "borc,on->bnrc", grad_out, w[:, :, dkr, dkc], optimize=True
            )
    return grad_x, grad_w


def conv2d_im2col(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """GEMM-lowered convolution (the cuDNN-style approach, Section III-C).

    Materializes the im2col matrix and performs one big matmul — the
    spatial-domain alternative the paper mentions alongside direct
    summation.  The zoo's im2col engine runs it on the numpy backend, and
    the tests use it as a third oracle.
    """
    p = _check_forward_args(x, w)
    cols = np.empty((p.b, p.ni * p.kr * p.kc, p.ro * p.co), dtype=np.float64)
    row = 0
    for cni in range(p.ni):
        for dkr in range(p.kr):
            for dkc in range(p.kc):
                window = x[:, cni, dkr : dkr + p.ro, dkc : dkc + p.co]
                cols[:, row, :] = window.reshape(p.b, -1)
                row += 1
    w_mat = w.reshape(p.no, p.ni * p.kr * p.kc)
    out = np.einsum("ok,bkp->bop", w_mat, cols, optimize=True)
    return out.reshape(p.output_shape)
