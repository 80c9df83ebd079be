"""Fixed-bucket log-spaced histograms for latency and byte distributions.

Bucket edges are computed once from (lower, upper, buckets_per_decade) and
never depend on the data, so two runs with different seeds aggregate into
comparable histograms and two runs with the same seed produce bit-identical
exports. Values below ``lower`` (including the exact-zero latencies a
topology-less transport produces) land in a dedicated underflow bucket;
values above the last edge land in an overflow bucket.

Percentiles use the nearest-rank rule on bucket boundaries: the reported
pXX is the upper edge of the bucket containing the target rank, clamped to
the observed [min, max]. That makes percentiles a function of the bucket
counts alone — deterministic, mergeable, and honest about resolution.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import repeat
from typing import Dict, Iterable, List, Optional

__all__ = ["LogHistogram"]

_ADD = operator.add


class LogHistogram:
    """Histogram with log-spaced, data-independent bucket edges.

    Parameters
    ----------
    lower:
        First positive bucket edge. Everything in ``[0, lower)`` falls into
        the underflow bucket (reported with representative value 0.0).
    upper:
        Edges stop once they exceed this bound; larger values overflow.
    buckets_per_decade:
        Resolution: edges grow by ``10 ** (1 / buckets_per_decade)``.
    """

    def __init__(
        self,
        lower: float = 1e-3,
        upper: float = 1e7,
        buckets_per_decade: int = 4,
    ) -> None:
        if lower <= 0 or upper <= lower:
            raise ValueError(f"need 0 < lower < upper, got {lower}, {upper}")
        if buckets_per_decade <= 0:
            raise ValueError(f"buckets_per_decade must be positive, got {buckets_per_decade}")
        growth = 10.0 ** (1.0 / buckets_per_decade)
        bounds: List[float] = [0.0]
        edge = lower
        while edge <= upper:
            bounds.append(edge)
            edge *= growth
        self.bounds = bounds
        self._lower = lower
        # counts[i] covers values in (bounds[i-1], bounds[i]]; counts[0] is
        # the underflow bucket [0, bounds[1]) collapsed onto edge 0.0, and
        # the final slot is the overflow bucket past the last edge.
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, value: float) -> None:
        """Add one observation (negative values clamp to zero)."""
        # Zero and sub-``lower`` values (every latency of a topology-less
        # transport) skip the bisect: they are the underflow bucket.
        value = value + 0.0  # int -> float, -0.0 -> 0.0, without a call
        if value >= self._lower:
            index = bisect_left(self.bounds, value)
        else:
            if not value > 0.0:  # negatives (and NaN) clamp to zero
                value = 0.0
            index = 0
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def record_many(self, values: Iterable[float]) -> None:
        """Add every observation of ``values``, in order.

        Leaves exactly the state one :meth:`record` call per value would,
        and runs no Python loop per value: ``value + 0.0`` (int -> float,
        -0.0 -> 0.0) is a ``map``, ``total`` a left-to-right
        ``reduce(operator.add, …)`` (never ``sum``, which is compensated
        from CPython 3.12 on), and the bucket counts come from one sort and
        a bisect per occupied bucket. Only a batch holding a negative value
        or NaN takes a per-value pass, to clamp it to zero as ``record``
        does.
        """
        ordered = list(map(_ADD, values, repeat(0.0)))
        if not ordered:
            return
        total = reduce(_ADD, ordered, self.total)
        clean = sorted(ordered)
        # A NaN makes the total NaN (the running total never is: it only
        # ever adds clamped values); without one, the sort puts any
        # negative first.
        if total != total or clean[0] < 0.0:
            ordered = [value if value > 0.0 else 0.0 for value in ordered]
            total = reduce(_ADD, ordered, self.total)
            clean = sorted(ordered)
        self.total = total
        size = len(clean)
        self.count += size
        if self.min is None or clean[0] < self.min:
            self.min = clean[0]
        if self.max is None or clean[-1] > self.max:
            self.max = clean[-1]
        counts, bounds = self.counts, self.bounds
        done = bisect_left(clean, self._lower)
        counts[0] += done
        while done < size:
            index = bisect_left(bounds, clean[done])
            if index < len(bounds):
                upto = bisect_right(clean, bounds[index], done)
            else:
                upto = size
            counts[index] += upto - done
            done = upto

    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile from bucket counts, clamped to [min, max]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0 or self.min is None or self.max is None:
            return None
        target = max(1, math.ceil(q * self.count))
        running = 0
        for index, bucket_count in enumerate(self.counts):
            running += bucket_count
            if running >= target:
                if index == 0:
                    representative = 0.0
                elif index < len(self.bounds):
                    representative = self.bounds[index]
                else:
                    representative = self.max
                return min(max(representative, self.min), self.max)
        return self.max  # unreachable: counts sum to self.count

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary: count/sum/min/max/p50/p90/p99 + sparse buckets.

        Buckets are emitted as ``[upper_edge, count]`` pairs for non-empty
        buckets only; the overflow bucket's edge is ``None``.
        """
        buckets: List[List[object]] = []
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            edge = self.bounds[index] if index < len(self.bounds) else None
            buckets.append([edge, bucket_count])
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "buckets": buckets,
        }

    def __repr__(self) -> str:
        return f"LogHistogram(count={self.count}, min={self.min}, max={self.max})"
