"""Roofline-model primitives (Williams, Waterman & Patterson, cited as [27]).

The paper estimates the minimum bandwidth (``RBW``) needed to feed peak
floating-point throughput and then derates performance by the *square* of
the bandwidth shortfall — convolution's computation grows with the square of
its data, so halving the deliverable bandwidth quarters the sustainable
throughput at fixed working set (Section III-D).
"""

from __future__ import annotations

from dataclasses import dataclass


def bandwidth_bound_fraction(required: float, measured: float) -> float:
    """``min(1, measured/required)`` — the paper's per-level derating base.

    When the measured bandwidth meets the requirement, memory at this level
    stops being the bound and the factor saturates at 1.
    """
    if required <= 0:
        raise ValueError(f"required bandwidth must be positive, got {required}")
    if measured < 0:
        raise ValueError(f"measured bandwidth must be non-negative, got {measured}")
    return min(1.0, measured / required)


@dataclass(frozen=True)
class Roofline:
    """A classic roofline: peak compute vs a single bandwidth ceiling."""

    peak_flops: float
    peak_bandwidth: float

    def __post_init__(self) -> None:
        if self.peak_flops <= 0 or self.peak_bandwidth <= 0:
            raise ValueError("peak flops and bandwidth must be positive")

    @property
    def ridge_intensity(self) -> float:
        """Arithmetic intensity (flops/byte) where the roofline bends."""
        return self.peak_flops / self.peak_bandwidth

    def attainable(self, arithmetic_intensity: float) -> float:
        """Attainable flop/s at a given arithmetic intensity."""
        if arithmetic_intensity < 0:
            raise ValueError("arithmetic intensity must be non-negative")
        return min(self.peak_flops, self.peak_bandwidth * arithmetic_intensity)

    def required_bandwidth_for(self, bytes_moved: float, flops: float) -> float:
        """RBW to sustain peak given a kernel's bytes/flops ratio."""
        if flops <= 0:
            raise ValueError("flops must be positive")
        return self.peak_flops * (bytes_moved / flops)

    def quadratic_fraction(self, measured_bandwidth: float, required: float) -> float:
        """The squared derating of Fig. 2: ``min(1, MBW/RBW)**2``."""
        return bandwidth_bound_fraction(required, measured_bandwidth) ** 2
