"""Baselines the paper compares against.

* :mod:`repro.baselines.k40m` — a calibrated performance model of
  cuDNNv5.1 on a Tesla K40m, the GPU comparator of Figs. 7 and 9.

The spatial-domain alternatives of Section III-C (im2col lowering and
F(2x2, 3x3) Winograd) run as tuned engines in the algorithm zoo
(:mod:`repro.core.algorithms`); the direct gload design point of Fig. 2
is :meth:`repro.perf.model.PerformanceModel.direct_memory`.
"""

from repro.baselines.k40m import K40mCuDNNModel

__all__ = ["K40mCuDNNModel"]
