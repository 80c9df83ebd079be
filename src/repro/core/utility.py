"""The utility function for document placement (paper §3.1).

A cache that has just retrieved a document computes

``utility(d, c) = w_afc·AFC + w_dai·DAI + w_dscc·DsCC + w_cmc·CMC``

and stores the copy iff the utility exceeds a threshold. The paper defines
the four components verbally (their mathematical formulations live in an
unavailable technical report [11]); we reconstruct each component to match
its stated semantics, normalized to [0, 1]:

* **AFC** (access frequency): "how frequently the document is accessed in
  comparison to other documents stored in the cache".
  ``AFC = f_d / (f_d + f̄)`` where ``f_d`` is the document's recent local
  access rate and ``f̄`` the cache's mean per-document rate. 0.5 means
  exactly average; →1 for locally hot documents.
* **DAI** (document availability improvement): "the improvement in the
  availability of the document in the cache cloud achieved by storing the
  copy". With ``n`` existing in-cloud copies, a new copy's marginal
  contribution is ``DAI = 1/(n+1)`` — 1.0 for the first copy in the cloud,
  rapidly diminishing as replicas accumulate.
* **DsCC** (disk-space contention): "a higher value implies that the new
  document copy ... is likely to remain longer in the cache cloud than the
  existing copies". ``DsCC = r_new / (r_new + r_min)`` where ``r_new`` is
  the expected residence time of a fresh admission at this cache and
  ``r_min`` the smallest expected residence among the caches currently
  holding the document. Unlimited disk (or a cache that has never evicted)
  counts as unbounded residence.
* **CMC** (consistency maintenance): "a high value indicates that the
  document is accessed more frequently than it is updated".
  ``CMC = a_d / (a_d + u_d)`` with ``a_d`` the local access rate and
  ``u_d`` the document's update rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.core.config import UtilityWeights


@dataclass(slots=True)
class PlacementContext:
    """Everything the utility function observes about one placement decision.

    A report of one decision's inputs, as
    :meth:`~repro.core.node.CacheNode.placement_context` assembles it for
    callers that want to look at them. The miss path itself builds no
    context: it hands the same values straight to
    :meth:`~repro.core.placement.PlacementPolicy.decide`.
    """

    cache_id: int
    doc_id: int
    size_bytes: int
    now: float
    beacon_id: int
    #: Caches (other than the requester) currently holding the document.
    existing_holders: FrozenSet[int]
    #: Recent local access rate of the document at the deciding cache.
    local_access_rate: float
    #: Mean per-document access rate at the deciding cache.
    cache_mean_rate: float
    #: Recent update rate of the document (cloud-wide, beacon-observed).
    update_rate: float
    #: Expected residence of a new admission at the deciding cache
    #: (None = effectively unbounded: unlimited disk or no contention yet).
    expected_residence_new: Optional[float]
    #: Minimum expected residence among the existing holders' caches
    #: (None = no holder under contention).
    min_residence_existing: Optional[float]


@dataclass(frozen=True)
class UtilityComponents:
    """The four evaluated components, each in [0, 1]."""

    afc: float
    dai: float
    dscc: float
    cmc: float

    def __post_init__(self) -> None:
        for name in ("afc", "dai", "dscc", "cmc"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"component {name}={value} outside [0, 1]")

    def weighted(self, weights: UtilityWeights) -> float:
        """The utility value under ``weights``."""
        return (
            weights.afc * self.afc
            + weights.dai * self.dai
            + weights.dscc * self.dscc
            + weights.cmc * self.cmc
        )


def _ratio(numerator: float, denominator_extra: float, neutral: float = 0.5) -> float:
    """``n / (n + m)`` with a neutral value when both signals are absent.

    "Absent" is exact: the guard is ``n + m <= 0``, with no tolerance — a
    total of ``1e-300`` is a signal and divides.
    """
    total = numerator + denominator_extra
    if total <= 0.0:
        return neutral
    return numerator / total


def evaluate(
    copies: int,
    access_rate: float,
    mean_rate: float,
    update_rate: float,
    residence_new: Optional[float],
    residence_min: Optional[float],
) -> Tuple[float, float, float, float]:
    """The four components ``(afc, dai, dscc, cmc)``, not yet range-checked.

    ``copies`` is the number of live in-cloud copies other than the
    deciding cache's; the remaining arguments are the
    :class:`PlacementContext` fields of the same meaning.
    """
    if residence_new is None:
        # No contention at the deciding cache: the copy effectively
        # never leaves, so it outlives any existing copy.
        dscc = 1.0
    elif residence_min is None:
        # Contention here, none at the holders: the new copy is the
        # volatile one. Compare against its own horizon — neutral.
        dscc = 0.5
    else:
        dscc = _ratio(residence_new, residence_min)
    return (
        _ratio(access_rate, mean_rate),
        1.0 / (copies + 1),
        dscc,
        _ratio(access_rate, update_rate),
    )


class UtilityComputer:
    """Evaluates the four components and the thresholded store decision."""

    def __init__(self, weights: UtilityWeights, threshold: float = 0.5) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.weights = weights
        self.threshold = threshold
        self.evaluations = 0
        self.accepts = 0

    # ------------------------------------------------------------------
    # From values read in place (the miss path)
    # ------------------------------------------------------------------
    def utility(
        self,
        copies: int,
        access_rate: float,
        mean_rate: float,
        update_rate: float,
        residence_new: Optional[float],
        residence_min: Optional[float],
    ) -> float:
        """The scalar utility of storing the copy; arguments as :func:`evaluate`."""
        afc, dai, dscc, cmc = evaluate(
            copies, access_rate, mean_rate, update_rate, residence_new, residence_min
        )
        if not (
            0.0 <= afc <= 1.0
            and 0.0 <= dai <= 1.0
            and 0.0 <= dscc <= 1.0
            and 0.0 <= cmc <= 1.0
        ):
            # Raises, naming the first component out of range.
            UtilityComponents(afc, dai, dscc, cmc)
        weights = self.weights
        return (
            weights.afc * afc
            + weights.dai * dai
            + weights.dscc * dscc
            + weights.cmc * cmc
        )

    def decide(
        self,
        copies: int,
        access_rate: float,
        mean_rate: float,
        update_rate: float,
        residence_new: Optional[float],
        residence_min: Optional[float],
    ) -> bool:
        """Thresholded decision: store iff ``utility > threshold``."""
        self.evaluations += 1
        decision = (
            self.utility(
                copies, access_rate, mean_rate, update_rate,
                residence_new, residence_min,
            )
            > self.threshold
        )
        if decision:
            self.accepts += 1
        return decision

    # ------------------------------------------------------------------
    # From a context object (reporting callers)
    # ------------------------------------------------------------------
    def components(self, ctx: PlacementContext) -> UtilityComponents:
        """Evaluate all four components for ``ctx``."""
        return UtilityComponents(*evaluate(*_inputs(ctx)))

    def value(self, ctx: PlacementContext) -> float:
        """The scalar utility of storing the copy."""
        return self.utility(*_inputs(ctx))

    def should_store(self, ctx: PlacementContext) -> bool:
        """Thresholded decision: store iff ``utility > threshold``."""
        return self.decide(*_inputs(ctx))

    @property
    def accept_rate(self) -> float:
        """Fraction of evaluations that decided to store."""
        return self.accepts / self.evaluations if self.evaluations else 0.0

    def __repr__(self) -> str:
        return (
            f"UtilityComputer(threshold={self.threshold}, "
            f"weights={self.weights.as_dict()}, accept_rate={self.accept_rate:.3f})"
        )


def _inputs(
    ctx: PlacementContext,
) -> Tuple[int, float, float, float, Optional[float], Optional[float]]:
    """The arguments of :func:`evaluate`, read from a context."""
    return (
        len(ctx.existing_holders),
        ctx.local_access_rate,
        ctx.cache_mean_rate,
        ctx.update_rate,
        ctx.expected_residence_new,
        ctx.min_residence_existing,
    )
