"""First-principles model of static vs ring-balanced load distribution.

Setup
-----
``n`` documents with (normalized) load weights ``w_1..w_n`` are assigned to
``m`` caches. Let ``S = Σ w_i²`` (the "self-collision mass" — large when the
workload is skewed).

**Static hashing** drops each document into one of ``m`` buckets uniformly
and independently. A bucket's load ``L`` has

* ``E[L] = 1/m``
* ``Var[L] = (1/m)(1 - 1/m) · S``

so the coefficient of variation across buckets is approximately

* ``CoV_static ≈ sqrt((m - 1) · S)``.

**Dynamic hashing with rings of size k** first drops documents into
``r = m/k`` rings (uniform hash — unavoidable variance), then balances
*perfectly* within each ring, giving every member ``ring_load / k``. A ring's
load has ``Var = (1/r)(1 - 1/r) · S``; each member inherits ``1/k²`` of it:

* ``CoV_ring ≈ sqrt((r - 1) · S) = sqrt((m/k - 1) · S)``.

Consequences — exactly the paper's claims:

1. ``k = 2`` already cuts the CoV by the factor ``sqrt((m-1)/(m/2-1)) ≈ √2``
   ("significantly better load balancing ... compared with static hashing").
2. Growing ``k`` further improves balance, but with diminishing returns
   ("improves the load balancing incrementally"): the residual is the
   cross-ring variance, which only shrinks like ``sqrt(m/k - 1)``.
3. ``k = m`` (one ring) would balance perfectly — but the paper rejects it
   because the sub-range determination cost grows with ring size.

The model's assumptions (independent uniform hashing, perfect in-ring
balance, loads proportional to weights) make it an *approximation*; the
Monte-Carlo helper and the test suite quantify how tight it is for the
actual MD5-based machinery and the greedy (imperfect) rebalancer.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence

from repro.metrics.loadbalance import coefficient_of_variation


def zipf_load_weights(num_documents: int, alpha: float) -> List[float]:
    """Normalized per-document load weights under Zipf(alpha)."""
    if num_documents <= 0:
        raise ValueError("num_documents must be positive")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    raw = [1.0 / (rank ** alpha) for rank in range(1, num_documents + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def self_collision_mass(weights: Sequence[float]) -> float:
    """``S = Σ w_i²`` for normalized weights — the skew functional.

    ``S`` ranges from ``1/n`` (uniform) to 1 (a single document carries
    everything); every variance in this model is proportional to it.
    """
    total = sum(weights)
    if not math.isclose(total, 1.0, rel_tol=1e-6):
        raise ValueError(f"weights must be normalized, sum={total}")
    return sum(w * w for w in weights)


def expected_cov_static(weights: Sequence[float], num_caches: int) -> float:
    """Predicted CoV of per-cache load under static (random) hashing."""
    if num_caches <= 0:
        raise ValueError("num_caches must be positive")
    if num_caches == 1:
        return 0.0
    return math.sqrt((num_caches - 1) * self_collision_mass(weights))


def expected_cov_ring_balanced(
    weights: Sequence[float], num_caches: int, ring_size: int
) -> float:
    """Predicted CoV with perfect in-ring balancing at ring size ``k``.

    Requires ``ring_size`` to divide ``num_caches`` (the configurations the
    paper evaluates).
    """
    if ring_size <= 0:
        raise ValueError("ring_size must be positive")
    if num_caches % ring_size != 0:
        raise ValueError(
            f"ring_size {ring_size} must divide num_caches {num_caches}"
        )
    num_rings = num_caches // ring_size
    if num_rings == 1:
        return 0.0  # a single ring balances across every cache
    return math.sqrt((num_rings - 1) * self_collision_mass(weights))


def monte_carlo_cov(
    weights: Sequence[float],
    num_caches: int,
    ring_size: int = 1,
    trials: int = 200,
    rng: Optional[random.Random] = None,
) -> float:
    """Empirical mean CoV over random assignments (model validation).

    ``ring_size = 1`` simulates static hashing (each document to a uniform
    cache); ``ring_size > 1`` simulates uniform ring assignment followed by
    *perfect* in-ring balancing — the idealization the closed forms above
    describe. The real greedy rebalancer is measured separately by the
    experiment harness; comparing the three quantifies both the model error
    and the rebalancer's optimality gap.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if num_caches % ring_size != 0:
        raise ValueError("ring_size must divide num_caches")
    rng = rng if rng is not None else random.Random(0)
    num_rings = num_caches // ring_size
    covs = []
    for _ in range(trials):
        if ring_size == 1:
            buckets = [0.0] * num_caches
            for weight in weights:
                buckets[rng.randrange(num_caches)] += weight
        else:
            ring_loads = [0.0] * num_rings
            for weight in weights:
                ring_loads[rng.randrange(num_rings)] += weight
            buckets = []
            for load in ring_loads:
                buckets.extend([load / ring_size] * ring_size)
        covs.append(coefficient_of_variation(buckets))
    return sum(covs) / len(covs)
