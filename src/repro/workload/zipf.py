"""Zipf-distributed sampling over document ranks.

The paper's synthetic dataset draws both accesses and invalidations from a
Zipf distribution: the probability of selecting the document of popularity
rank ``r`` (1-indexed) is proportional to ``1 / r**alpha``. ``alpha = 0``
degenerates to the uniform distribution; the paper sweeps ``alpha`` from 0 to
0.99 in Figure 6 and uses 0.9 for the headline Zipf-0.9 dataset.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import List, Optional


def zipf_weights(n: int, alpha: float) -> List[float]:
    """Unnormalized Zipf weights ``1/r**alpha`` for ranks 1..n.

    Raises
    ------
    ValueError
        If ``n`` is not positive or ``alpha`` is negative.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return [1.0 / (rank ** alpha) for rank in range(1, n + 1)]


class ZipfSampler:
    """Samples 0-based ranks from a Zipf(alpha) distribution over ``n`` items.

    Sampling is O(log n) via inverse-CDF with binary search, which is fast
    enough to draw the millions of trace records used by the experiments.

    Parameters
    ----------
    n:
        Number of distinct items (ranks ``0 .. n-1``; rank 0 is hottest).
    alpha:
        Zipf skew parameter; 0 means uniform.
    rng:
        Source of randomness. Pass a seeded :class:`random.Random` for
        reproducibility; defaults to a fresh, unseeded instance.

    A generator loop spells :meth:`sample` out in place from the public
    ``cdf`` and ``total``: ``bisect_left(cdf, rng.random() * total)``.
    """

    def __init__(self, n: int, alpha: float, rng: Optional[random.Random] = None) -> None:
        weights = zipf_weights(n, alpha)
        self.n = n
        self.alpha = alpha
        self._rng = rng if rng is not None else random.Random()
        self.cdf = list(itertools.accumulate(weights))
        self.total = self.cdf[-1]

    def probability(self, rank: int) -> float:
        """Exact probability mass of 0-based ``rank``."""
        if not 0 <= rank < self.n:
            raise IndexError(f"rank {rank} out of range [0, {self.n})")
        prev = self.cdf[rank - 1] if rank > 0 else 0.0
        return (self.cdf[rank] - prev) / self.total

    def sample(self) -> int:
        """Draw one 0-based rank."""
        u = self._rng.random() * self.total
        return bisect.bisect_left(self.cdf, u)

    def __repr__(self) -> str:
        return f"ZipfSampler(n={self.n}, alpha={self.alpha})"


def permuted_ranks(n: int, rng: random.Random) -> List[int]:
    """A random bijection rank -> item used to decouple popularity from id.

    Hash-based assignment schemes key on the document URL; if document id 0
    were always the hottest, hashing artifacts could correlate with
    popularity. Experiments therefore shuffle which document holds which
    popularity rank.
    """
    mapping = list(range(n))
    rng.shuffle(mapping)
    return mapping
