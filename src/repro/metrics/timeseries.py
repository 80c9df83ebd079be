"""Time series and the windowed counter delta for experiment instrumentation."""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple


def _nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank selection from an ascending-sorted sequence.

    ``q=0`` selects the minimum, ``q=1`` the maximum; the sequence must be
    non-empty. This is the one selection rule shared by every percentile
    accessor in the repo (histograms approximate it on bucket edges).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not sorted_values:
        raise ValueError("cannot take a percentile of an empty sequence")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class TimeSeries:
    """Append-only (time, value) series with window aggregation.

    Timestamps must be non-decreasing (simulation time only moves forward),
    which keeps range queries a binary search. Both columns are unboxed
    ``array('d')``: a point costs 16 bytes, not two list slots and two
    float objects.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: array[float] = array("d")
        self._values: array[float] = array("d")

    def append(self, time: float, value: float) -> None:
        """Record ``value`` at ``time``; time must not regress."""
        times = self._times
        if times and time < times[-1]:
            raise ValueError(
                f"timestamps must be non-decreasing: {time} after {times[-1]}"
            )
        times.append(time)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    def items(self) -> List[Tuple[float, float]]:
        """All (time, value) pairs."""
        return list(zip(self._times, self._values))

    def values_in(self, start: float, end: float) -> List[float]:
        """Values with ``start <= time < end`` (insertion order)."""
        lo = bisect_left(self._times, start)
        hi = bisect_left(self._times, end)
        return self._values[lo:hi].tolist()

    def values_from(self, index: int) -> array[float]:
        """The values appended after the first ``index`` (a copy)."""
        return self._values[index:]

    def percentile_in(self, start: float, end: float, q: float) -> Optional[float]:
        """Nearest-rank percentile of values in ``[start, end)``.

        Returns ``None`` when the window is empty, so callers can
        distinguish "no traffic" from "zero latency".
        """
        values = self.values_in(start, end)
        if not values:
            return None
        return _nearest_rank(sorted(values), q)


class CounterWindow:
    """Per-window growth of the cumulative counters one source reports.

    ``read`` returns the counters' current values by name, as a mapping it
    does not touch again (the last one is kept as the baseline). The experiment
    runner zeroes statistics at the warm-up boundary, so a counter below its
    baseline was reset inside the window: its value *is* the growth since.
    The flight recorder takes its overload deltas here, so a window that
    holds the reset reads the post-reset counters, never a negative.
    """

    def __init__(self, read: Callable[[], Mapping[str, float]]) -> None:
        self._read = read
        self._base: Mapping[str, float] = {}

    def rebase(self) -> None:
        """Start the next window at the counters' current values."""
        self._base = self._read()

    def delta(self) -> Dict[str, float]:
        """Growth of every counter since the last call, which it rebases."""
        snapshot = self._read()
        base = self._base
        self._base = snapshot
        delta: Dict[str, float] = {}
        for name, value in snapshot.items():
            last = base.get(name, 0.0)
            delta[name] = float(value - last if value >= last else value)
        return delta
