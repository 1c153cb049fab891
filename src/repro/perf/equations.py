"""The required-bandwidth (RBW) equations of the paper.

Every equation answers: *to keep the floating-point units at peak, how many
bytes per second must this level of the hierarchy deliver?*  ``T`` is the
peak throughput fed by the level (per CG for MEM->LDM, per CPE for
LDM->REG); ``DS`` is the data size (8 bytes, double precision).

* **Eq. 1** (image-size-aware, Algorithm 1):
  ``RBW = ((1/(bCo*bB)) + 1/No) * DS / (2/T)``
* **Eq. 2** (batch-size-aware, Algorithm 2):
  ``RBW = ((1/(Kc*No)) + 1/B) * DS / (2/T)``
* **Eq. 3** (register blocking, spatial plan):
  ``RBW = (rbRi*rbCi + rbCo*rbRo) * DS / (2*rbKr*rbKc*rbCo*rbRo / T)``
* **Eq. 4** (register blocking, GEMM plan):
  ``RBW = (rbB + rbNo) * DS / (2*rbB*rbNo / T)``
* **Eq. 5** (Eq. 4 with SIMD splat loads, 4x cost on the filter term):
  ``RBW = (rbB + 4*rbNo) * DS / (2*rbB*rbNo / T)``

With the paper's choice ``rbB=16, rbNo=4`` Eq. 5 evaluates to 23.2 GB/s,
comfortably below the 46.4 GB/s LDM->register bandwidth — the check the
paper performs to conclude registers stop being the bound.
"""

from __future__ import annotations

import numpy as np

from repro.common.units import GB
from repro.hw.spec import DEFAULT_SPEC

#: Double precision.
DS = 8

#: Required bandwidth of the *direct memory access* design point (Fig. 2,
#: middle column): with no data reuse at all, feeding the 742.4 Gflops CG
#: peak needs 139.20 GB/s; the gload interface physically provides 8 GB/s,
#: giving the (8/139.2)**2 = 0.33% efficiency the paper quotes.
RBW_DIRECT_MEM = 139.20 * GB


def _check_positive(**kwargs: float) -> None:
    """Raise unless every value is positive (a scalar or every array item).

    Plain numbers skip NumPy; NaN is not ``<= 0`` either way, so it passes.
    """
    for name, value in kwargs.items():
        scalar = isinstance(value, (int, float))
        if (value <= 0) if scalar else np.any(np.less_equal(value, 0)):
            raise ValueError(f"{name} must be positive, got {value}")


def rbw_mem_ldm_image_plan(
    b_co: int,
    b_b: int,
    n_o: int,
    peak_flops: float = DEFAULT_SPEC.peak_flops_per_cg,
    ds: int = DS,
) -> float:
    """Eq. 1: MEM->LDM RBW of the image-size-aware plan (Algorithm 1).

    ``b_co``/``b_b`` are the blocking sizes on the output-column and batch
    dimensions; ``n_o`` is the number of output channels.  Larger blocks and
    more output channels both amortize traffic.
    """
    _check_positive(b_co=b_co, b_b=b_b, n_o=n_o, peak_flops=peak_flops)
    return (1.0 / (b_co * b_b) + 1.0 / n_o) * ds / (2.0 / peak_flops)


def rbw_mem_ldm_batch_plan(
    k_c: int,
    n_o: int,
    b: int,
    peak_flops: float = DEFAULT_SPEC.peak_flops_per_cg,
    ds: int = DS,
) -> float:
    """Eq. 2: MEM->LDM RBW of the batch-size-aware plan (Algorithm 2)."""
    _check_positive(k_c=k_c, n_o=n_o, b=b, peak_flops=peak_flops)
    return (1.0 / (k_c * n_o) + 1.0 / b) * ds / (2.0 / peak_flops)


def rbw_mem_ldm_image_plan_promoted(
    b_co: int,
    b_b: int,
    n_o: int,
    k_c: int,
    peak_flops: float = DEFAULT_SPEC.peak_flops_per_cg,
    ds: int = DS,
) -> float:
    """Eq. 1 extended for input-DMA promotion (Section IV-A, last paragraph).

    The paper states the promotion ("read input image tile of size
    (Costart : Costart + Kr + bCo)") but not its RBW; deriving it the same
    way as Eq. 1: one halo-widened input row of ``bCo + Kc - 1`` columns now
    serves all ``Kc`` filter columns, so the input term shrinks from
    ``1/No`` to ``(bCo + Kc - 1) / (bCo * Kc * No)`` while the filter term
    ``1/(bCo*bB)`` is unchanged (promotion moves the same filter bytes in
    longer runs).
    """
    _check_positive(b_co=b_co, b_b=b_b, n_o=n_o, k_c=k_c, peak_flops=peak_flops)
    input_term = (b_co + k_c - 1) / (b_co * k_c * n_o)
    filter_term = 1.0 / (b_co * b_b)
    return (input_term + filter_term) * ds / (2.0 / peak_flops)


def rbw_mem_ldm_batch_plan_promoted(
    k_c: int,
    n_o: int,
    b: int,
    b_co: int,
    peak_flops: float = DEFAULT_SPEC.peak_flops_per_cg,
    ds: int = DS,
) -> float:
    """Eq. 2 extended for filter-DMA promotion (Section IV-A).

    Promoting the filter fetch to the ``kr`` level ("read filter tile of
    size (cKc, :)") loads each (kr, :) filter slab once per output-column
    block instead of once per input column, shrinking the filter term from
    ``1/B`` to ``1/(B * bCo)``; the input term gains the halo factor
    ``(bCo + Kc - 1)/bCo``.
    """
    _check_positive(k_c=k_c, n_o=n_o, b=b, b_co=b_co, peak_flops=peak_flops)
    input_term = (b_co + k_c - 1) / (b_co * k_c * n_o)
    filter_term = 1.0 / (b * b_co)
    return (input_term + filter_term) * ds / (2.0 / peak_flops)


def rbw_ldm_reg_direct_conv(
    rb_ri: int,
    rb_ci: int,
    rb_kr: int,
    rb_kc: int,
    peak_flops: float = DEFAULT_SPEC.peak_flops_per_cpe,
    ds: int = DS,
) -> float:
    """Eq. 3: LDM->REG RBW when registers block the spatial (Ci, Ri) dims.

    The output block is implied: ``rbCo = rbCi - Kc + 1`` and
    ``rbRo = rbRi - Kr + 1``.  The RBW here is pinned by the *network's*
    filter size — the reason the paper rejects the direct-convolution
    register plan (Section V-B).
    """
    _check_positive(rb_ri=rb_ri, rb_ci=rb_ci, rb_kr=rb_kr, rb_kc=rb_kc)
    rb_co = rb_ci - rb_kc + 1
    rb_ro = rb_ri - rb_kr + 1
    if rb_co <= 0 or rb_ro <= 0:
        raise ValueError(
            f"register block {rb_ri}x{rb_ci} too small for filter "
            f"{rb_kr}x{rb_kc}"
        )
    bytes_moved = (rb_ri * rb_ci + rb_co * rb_ro) * ds
    flops_time = 2.0 * rb_kr * rb_kc * rb_co * rb_ro / peak_flops
    return bytes_moved / flops_time


def rbw_ldm_reg_gemm(
    rb_b: int,
    rb_no: int,
    peak_flops: float = DEFAULT_SPEC.peak_flops_per_cpe,
    ds: int = DS,
) -> float:
    """Eq. 4: LDM->REG RBW when registers block the (B, No) dims.

    Free of the network's filter-size parameters — the property that makes
    the blocked-GEMM plan robust across configurations.
    """
    _check_positive(rb_b=rb_b, rb_no=rb_no)
    return (rb_b + rb_no) * ds / (2.0 * rb_b * rb_no / peak_flops)


def rbw_ldm_reg_gemm_simd(
    rb_b: int,
    rb_no: int,
    peak_flops: float = DEFAULT_SPEC.peak_flops_per_cpe,
    ds: int = DS,
    splat_cost: int = 4,
) -> float:
    """Eq. 5: Eq. 4 under the SIMD layout of Section V-C.

    Filter elements are loaded as scalars and extended to 4-lane vectors
    (``vldde``), costing ``splat_cost``x bandwidth on the ``rb_no`` term.
    The paper's setting (rbB=16, rbNo=4) yields 23.2 GB/s < 46.4 GB/s.
    """
    _check_positive(rb_b=rb_b, rb_no=rb_no)
    return (rb_b + splat_cost * rb_no) * ds / (2.0 * rb_b * rb_no / peak_flops)
