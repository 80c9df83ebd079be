"""Document placement policies (paper §3).

Three schemes decide whether a cache that has just retrieved a document
stores the copy:

* :class:`AdHocPlacement` — "place a document at each cache that has
  received a request for that document". Natural but leads to uncontrolled
  replication: high consistency-maintenance traffic and disk contention.
* :class:`BeaconPlacement` — "store each document only at its beacon point".
  One copy per cloud; hot beacon points and constant intra-cloud transfer
  traffic.
* :class:`UtilityPlacement` — the paper's contribution: store iff the
  four-component utility exceeds a threshold.
* :class:`ExpirationAgePlacement` — the authors' earlier scheme (reference
  [10]): store a copy iff its expected *expiration age* (mean time to the
  next update) exceeds the expected time to its next local access, i.e. the
  copy is expected to serve at least one hit before it dies. A single-signal
  precursor of the utility function's CMC component.

All policies answer through the same :meth:`PlacementPolicy.decide`
interface so the cloud orchestrator is scheme-agnostic. Policies are the
*admission rule* layer only: the strategy plane (:mod:`repro.strategies`)
wraps them into full :class:`~repro.strategies.base.CacheStrategy` objects
(forwarding + admission + update propagation) at the cloud's composition
root, which is also where richer schemes (LCE / LCD / ProbCache / CUP
trees) plug in without touching this module.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.core.config import CloudConfig, PlacementScheme
from repro.core.utility import PlacementContext, UtilityComputer


class PlacementPolicy(ABC):
    """Store-or-not decision for a freshly retrieved document copy."""

    #: Short name used in reports.
    name: str = "abstract"

    @abstractmethod
    def decide(
        self, at_beacon: bool, copies: int, access_rate: float, mean_rate: float,
        update_rate: float, residence_new: Optional[float], residence_min: Optional[float],
    ) -> bool:
        """Whether the deciding cache should store the copy.

        The arguments are what :class:`~repro.core.utility.PlacementContext`
        reports, as plain values: whether the deciding cache is the
        document's beacon point, the number of live copies elsewhere in the
        cloud, then the context's rate and residence fields. This is the
        form the miss path calls — nothing is built per decision.
        """

    def should_store(self, ctx: PlacementContext) -> bool:
        """:meth:`decide` on the values a context object carries."""
        return self.decide(
            ctx.cache_id == ctx.beacon_id,
            len(ctx.existing_holders),
            ctx.local_access_rate,
            ctx.cache_mean_rate,
            ctx.update_rate,
            ctx.expected_residence_new,
            ctx.min_residence_existing,
        )


class AdHocPlacement(PlacementPolicy):
    """Always store (the uncontrolled-replication baseline)."""

    name = "ad_hoc"

    def decide(
        self, at_beacon: bool, copies: int, access_rate: float, mean_rate: float,
        update_rate: float, residence_new: Optional[float], residence_min: Optional[float],
    ) -> bool:
        return True


class BeaconPlacement(PlacementPolicy):
    """Store only when the deciding cache is the document's beacon point."""

    name = "beacon"

    def decide(
        self, at_beacon: bool, copies: int, access_rate: float, mean_rate: float,
        update_rate: float, residence_new: Optional[float], residence_min: Optional[float],
    ) -> bool:
        return at_beacon


class UtilityPlacement(PlacementPolicy):
    """Threshold the four-component utility function."""

    name = "utility"

    def __init__(self, computer: UtilityComputer) -> None:
        self.computer = computer

    def decide(
        self, at_beacon: bool, copies: int, access_rate: float, mean_rate: float,
        update_rate: float, residence_new: Optional[float], residence_min: Optional[float],
    ) -> bool:
        return self.computer.decide(
            copies, access_rate, mean_rate, update_rate,
            residence_new, residence_min,
        )


class ExpirationAgePlacement(PlacementPolicy):
    """Store iff expected expiration age > expected local inter-access time.

    With Poisson accesses (rate ``a``) and updates (rate ``u``), the copy's
    expected lifetime is ``1/u`` and its expected time to next local hit is
    ``1/a``; the copy earns its keep iff ``1/u > 1/a``, i.e. ``a > u``.
    Never-updated documents are always stored.
    """

    name = "expiration_age"

    def decide(
        self, at_beacon: bool, copies: int, access_rate: float, mean_rate: float,
        update_rate: float, residence_new: Optional[float], residence_min: Optional[float],
    ) -> bool:
        if update_rate <= 0.0:
            return True
        return access_rate > update_rate


def make_placement(config: CloudConfig) -> PlacementPolicy:
    """Build the placement policy ``config.placement`` names.

    Only the four policy schemes name one; the strategy factory
    (:func:`~repro.strategies.spec.strategy_for`) builds every other scheme.
    """
    if config.placement is PlacementScheme.AD_HOC:
        return AdHocPlacement()
    if config.placement is PlacementScheme.BEACON:
        return BeaconPlacement()
    if config.placement is PlacementScheme.UTILITY:
        computer = UtilityComputer(
            weights=config.utility_weights, threshold=config.utility_threshold
        )
        return UtilityPlacement(computer)
    if config.placement is PlacementScheme.EXPIRATION_AGE:
        return ExpirationAgePlacement()
    raise ValueError(f"{config.placement} is not a placement policy")
