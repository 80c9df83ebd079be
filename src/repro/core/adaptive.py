"""Feedback-based adaptation of the utility weights (the paper's future work).

§4.2 closes with: "One such approach would be to continuously monitor
various system parameters and use a feedback mechanism to adjust the weight
parameters as needed. Studying this ... is a part of our ongoing work."

This module implements that mechanism. Once per adaptation period the
controller inspects the traffic mix since the last period and shifts weight
toward the component that addresses the dominant cost:

* **Update-dominated traffic** (server→beacon + fan-out bytes) means the
  cloud is paying consistency maintenance for its replicas → raise the CMC
  weight, making the scheme more reluctant to replicate volatile documents.
* **Miss-dominated traffic** (origin-fetch + peer-transfer bytes) means
  requests keep leaving the local cache → raise the AFC and DAI weights,
  making the scheme more eager to replicate.

Weight mass moves in small steps (:data:`STEP` per period, clamped to
:data:`FLOOR` so no enabled component is starved) and is renormalized, so the controller
is a slow integrator rather than a bang-bang switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.config import UtilityWeights
from repro.core.placement import UtilityPlacement
from repro.network.bandwidth import TrafficCategory, TrafficMeter

#: Traffic charged to consistency maintenance.
_UPDATE_CATEGORIES = (
    TrafficCategory.UPDATE_SERVER_TO_BEACON,
    TrafficCategory.UPDATE_FANOUT,
)
#: Traffic charged to misses.
_MISS_CATEGORIES = (
    TrafficCategory.ORIGIN_FETCH,
    TrafficCategory.PEER_TRANSFER,
)

#: Weight mass moved per adaptation period.
STEP = 0.05

#: Minimum weight retained by any component that started non-zero.
FLOOR = 0.05

#: The update-traffic share considered balanced; above it weight flows to
#: CMC, below it to AFC/DAI.
TARGET_UPDATE_SHARE = 0.5


@dataclass
class AdaptationRecord:
    """One adaptation step's observation and outcome (for analysis)."""

    time: float
    update_share: float
    weights: Dict[str, float]


class FeedbackWeightAdapter:
    """Adjusts a :class:`UtilityPlacement`'s weights from the traffic mix.

    Parameters
    ----------
    placement:
        The live placement policy whose computer is steered.
    meter:
        The cloud's traffic meter (byte deltas are read per period).
    """

    def __init__(self, placement: UtilityPlacement, meter: TrafficMeter) -> None:
        self.placement = placement
        self.meter = meter
        self._last_bytes: Dict[TrafficCategory, int] = {
            c: meter.bytes_for(c) for c in TrafficCategory
        }
        self.history: List[AdaptationRecord] = []

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def _delta(self, categories: Sequence[TrafficCategory]) -> int:
        return sum(
            self.meter.bytes_for(c) - self._last_bytes[c] for c in categories
        )

    def observe_update_share(self) -> Optional[float]:
        """Update-traffic share of data bytes since the last step.

        Returns ``None`` when no data traffic flowed (nothing to learn from).
        """
        update_bytes = self._delta(_UPDATE_CATEGORIES)
        miss_bytes = self._delta(_MISS_CATEGORIES)
        total = update_bytes + miss_bytes
        if total <= 0:
            return None
        return update_bytes / total

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def adapt(self, now: float) -> Optional[UtilityWeights]:
        """Run one adaptation step; returns the new weights (or None).

        Call once per adaptation period (the natural hook is the cloud's
        sub-range cycle).
        """
        share = self.observe_update_share()
        # Snapshot counters regardless, so the next period sees fresh deltas.
        self._last_bytes = {c: self.meter.bytes_for(c) for c in TrafficCategory}
        if share is None:
            return None

        current = self.placement.computer.weights
        weights = current.as_dict()
        enabled = {name for name, value in weights.items() if value > 0.0}
        if share > TARGET_UPDATE_SHARE:
            gainers, donors = {"cmc"}, {"afc", "dai"}
        else:
            gainers, donors = {"afc", "dai"}, {"cmc"}
        gainers &= enabled
        donors &= enabled
        if not gainers or not donors:
            return None

        # Move `step` mass from donors to gainers, respecting the floor.
        movable = 0.0
        for name in donors:
            available = max(0.0, weights[name] - FLOOR)
            take = min(available, STEP / len(donors))
            weights[name] -= take
            movable += take
        for name in gainers:
            weights[name] += movable / len(gainers)
        total = sum(weights.values())
        weights = {name: value / total for name, value in weights.items()}

        new_weights = UtilityWeights(**weights)
        self.placement.computer.weights = new_weights
        self.history.append(
            AdaptationRecord(time=now, update_share=share, weights=dict(weights))
        )
        return new_weights

    def __repr__(self) -> str:
        return (
            f"FeedbackWeightAdapter(steps={len(self.history)}, "
            f"weights={self.placement.computer.weights.as_dict()})"
        )
