"""Deterministic fault injection and chaos testing for the simulator.

``repro.faults`` turns the pristine simulated SW26010 into a degraded one —
derated/hung DMA, fenced CPEs, stalled register buses, LDM bit-flips — from
a single seed, with every injected event recorded in a
:class:`FaultLedger`.  The guarded execution layer
(:mod:`repro.core.guarded`) and the resumable sweep runner build on it.
"""

from repro.faults.plan import FaultEvent, FaultLedger, FaultPlan, FaultSpec
from repro.faults.chaos import (
    ChaosFleetReport,
    ChaosReport,
    ChaosRow,
    ChaosServeReport,
    default_chaos_serve_faults,
    run_chaos_fleet,
    run_chaos_serve,
    run_chaos_sweep,
)

__all__ = [
    "FaultEvent",
    "FaultLedger",
    "FaultPlan",
    "FaultSpec",
    "ChaosReport",
    "ChaosRow",
    "ChaosServeReport",
    "ChaosFleetReport",
    "default_chaos_serve_faults",
    "run_chaos_fleet",
    "run_chaos_serve",
    "run_chaos_sweep",
]
