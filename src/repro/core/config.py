"""Cloud configuration objects.

:class:`CloudConfig` captures every knob the paper varies: the beacon-point
assignment scheme (static / consistent / dynamic hashing), ring geometry
(`IntraGen`, ring count, cycle length), the placement scheme (ad hoc /
beacon-point / utility) with utility weights and threshold, per-cache disk
budgets, and whether the cloud cooperates at all (the paper's simulator
"can be configured to simulate ... edge network without cooperation").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


class AssignmentScheme(enum.Enum):
    """How documents map to beacon points (paper §2.1-§2.2)."""

    STATIC = "static"
    CONSISTENT = "consistent"
    DYNAMIC = "dynamic"


class PlacementScheme(enum.Enum):
    """How a cache decides whether to store a retrieved copy (paper §3).

    ``EXPIRATION_AGE`` is the authors' own earlier scheme (Ramaswamy & Liu,
    IEEE-TKDE 2004, the paper's reference [10]), included as a baseline.
    """

    AD_HOC = "ad_hoc"
    BEACON = "beacon"
    UTILITY = "utility"
    EXPIRATION_AGE = "expiration_age"


@dataclass(frozen=True)
class UtilityWeights:
    """Weights of the four utility components; must sum to 1 (paper §3.1).

    The paper sets each *turned-on* component's weight to ``1/k`` where ``k``
    components are on: Figures 7-8 use (⅓, ⅓, 0, ⅓) with DsCC off; Figure 9
    uses (¼, ¼, ¼, ¼).
    """

    afc: float = 0.25  # access frequency component
    dai: float = 0.25  # document availability improvement component
    dscc: float = 0.25  # disk-space contention component
    cmc: float = 0.25  # consistency maintenance component

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if value < 0:
                raise ValueError(f"weight {name} must be >= 0, got {value}")
        total = self.afc + self.dai + self.dscc + self.cmc
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total}")

    def as_dict(self) -> Dict[str, float]:
        """Weights as a name -> value dict."""
        return {"afc": self.afc, "dai": self.dai, "dscc": self.dscc, "cmc": self.cmc}

    @classmethod
    def equal_over(cls, components: Sequence[str]) -> "UtilityWeights":
        """Equal weights over the named components, zero elsewhere.

        Mirrors the paper's convention: "if k components are turned on, then
        we set the weight of each turned on component to 1/k".

        >>> UtilityWeights.equal_over(["afc", "dai", "cmc"]).dscc
        0.0
        """
        valid = {"afc", "dai", "dscc", "cmc"}
        chosen = list(components)
        if not chosen:
            raise ValueError("need at least one component")
        unknown = set(chosen) - valid
        if unknown:
            raise ValueError(f"unknown components: {sorted(unknown)}")
        if len(set(chosen)) != len(chosen):
            raise ValueError("components must be distinct")
        share = 1.0 / len(chosen)
        values = {name: (share if name in chosen else 0.0) for name in valid}
        return cls(**values)


#: The weight configuration of the unlimited-disk experiments (Figs. 7-8).
WEIGHTS_DSCC_OFF = UtilityWeights.equal_over(["afc", "dai", "cmc"])
#: The weight configuration of the limited-disk experiment (Fig. 9).
WEIGHTS_ALL_ON = UtilityWeights.equal_over(["afc", "dai", "dscc", "cmc"])


@dataclass
class CloudConfig:
    """Full configuration of one cache cloud.

    Defaults reproduce the paper's headline setup: a 10-cache cloud with 5
    beacon rings of 2 beacon points each, ``IntraGen`` = 1000, a 1-hour
    sub-range determination cycle, utility placement with threshold 0.5.
    """

    num_caches: int = 10
    num_rings: int = 5
    intra_gen: int = 1000
    cycle_length: float = 60.0  # simulated minutes; paper uses 1 hour
    assignment: AssignmentScheme = AssignmentScheme.DYNAMIC
    placement: PlacementScheme = PlacementScheme.UTILITY
    utility_weights: UtilityWeights = field(default_factory=lambda: WEIGHTS_DSCC_OFF)
    utility_threshold: float = 0.5
    use_per_irh_load: bool = True
    capacity_bytes: Optional[int] = None  # None = unlimited disk; bounded = LRU
    capabilities: Optional[List[float]] = None  # None = all 1.0
    cooperation: bool = True  # False = isolated edge caches baseline
    failure_resilience: bool = False  # lazy directory replication on/off
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_caches <= 0:
            raise ValueError("num_caches must be positive")
        if not 1 <= self.num_rings <= self.num_caches:
            raise ValueError(
                f"num_rings must be in [1, num_caches]; got {self.num_rings} "
                f"for {self.num_caches} caches"
            )
        if self.intra_gen < self.ring_size():
            raise ValueError(
                "intra_gen must be at least the ring size so every beacon "
                "point can own a non-empty sub-range"
            )
        if self.cycle_length <= 0:
            raise ValueError("cycle_length must be positive")
        if not 0 <= self.utility_threshold <= 1:
            raise ValueError("utility_threshold must be in [0, 1]")
        if self.capacity_bytes is not None and self.capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive or None")
        if self.capabilities is not None:
            if len(self.capabilities) != self.num_caches:
                raise ValueError(
                    f"capabilities has {len(self.capabilities)} entries for "
                    f"{self.num_caches} caches"
                )
            if any(c <= 0 for c in self.capabilities):
                raise ValueError("capabilities must all be positive")

    def ring_size(self) -> int:
        """Beacon points per ring (caches are dealt round-robin to rings).

        When ``num_caches`` is not a multiple of ``num_rings`` the first
        rings are one larger; this returns the maximum.
        """
        return -(-self.num_caches // self.num_rings)  # ceil division

    def ring_members(self) -> List[List[int]]:
        """Cache ids per ring: cache ``i`` joins ring ``i % num_rings``."""
        members: List[List[int]] = [[] for _ in range(self.num_rings)]
        for cache_id in range(self.num_caches):
            members[cache_id % self.num_rings].append(cache_id)
        return members

    def capability_of(self, cache_id: int) -> float:
        """Capability of ``cache_id`` (1.0 when homogeneous)."""
        if self.capabilities is None:
            return 1.0
        return self.capabilities[cache_id]
