"""Load-balance statistics over per-beacon load vectors.

"We use the coefficient of variation of the loads on the beacon points to
quantify load balancing. Coefficient of variation is defined as the ratio of
the standard deviation of the load distribution to the mean load. The lower
the coefficient of variation is, the better is the load balancing."
(paper §4.1). Figures 3-4 additionally report the ratio of the heaviest
load to the mean load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def _require_loads(loads: Sequence[float]) -> None:
    if not loads:
        raise ValueError("need at least one load value")
    if any(value < 0 for value in loads):
        raise ValueError("loads must be >= 0")


def mean(loads: Sequence[float]) -> float:
    """Arithmetic mean of the load vector."""
    _require_loads(loads)
    return sum(loads) / len(loads)


#: Below this peak load a squared deviation can underflow: at or above it,
#: one that does is under 2**-111 of the peak and cannot move the result.
_TINY_PEAK = 2.0 ** -400


def std_deviation(loads: Sequence[float]) -> float:
    """Population standard deviation of the load vector.

    A vector whose peak is below :data:`_TINY_PEAK` is measured at the
    scale of its peak, through an exact power-of-two factor, so its
    squared deviations keep their precision.
    """
    _require_loads(loads)
    peak = max(loads)
    if 0.0 < peak < _TINY_PEAK:
        exponent = math.frexp(peak)[1]
        scaled = [math.ldexp(value, -exponent) for value in loads]
        return math.ldexp(std_deviation(scaled), exponent)
    mu = mean(loads)
    return math.sqrt(sum((value - mu) ** 2 for value in loads) / len(loads))


def coefficient_of_variation(loads: Sequence[float]) -> float:
    """std / mean; 0 for a perfectly balanced (or all-zero) vector."""
    _require_loads(loads)
    mu = mean(loads)
    if mu == 0:
        return 0.0
    return std_deviation(loads) / mu


def peak_to_mean(loads: Sequence[float]) -> float:
    """max / mean; 1.0 means the heaviest node carries exactly a fair share."""
    _require_loads(loads)
    mu = mean(loads)
    if mu == 0:
        return 1.0
    return max(loads) / mu


@dataclass(frozen=True)
class LoadBalanceStats:
    """All the balance statistics a figure might report."""

    mean: float
    std: float
    cov: float
    peak: float
    peak_to_mean: float
    min: float

    @property
    def spread(self) -> float:
        """max - min, the absolute imbalance."""
        return self.peak - self.min


def load_balance_stats(loads: Sequence[float]) -> LoadBalanceStats:
    """Compute the full statistics bundle for a load vector."""
    _require_loads(loads)
    mu = mean(loads)
    return LoadBalanceStats(
        mean=mu,
        std=std_deviation(loads),
        cov=coefficient_of_variation(loads),
        peak=max(loads),
        peak_to_mean=peak_to_mean(loads),
        min=min(loads),
    )


def improvement_percent(baseline: float, improved: float) -> float:
    """Relative improvement of ``improved`` over ``baseline``, in percent.

    Positive when ``improved`` is lower (better) than ``baseline`` —
    matching the paper's phrasing "the dynamic hashing scheme improves the
    coefficient of variation by X %".
    """
    if baseline == 0:
        return 0.0
    return (baseline - improved) / baseline * 100.0
