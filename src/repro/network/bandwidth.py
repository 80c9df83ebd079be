"""Traffic metering by category.

Figures 8 and 9 chart "network load (MBs transferred per unit time)" inside a
cache cloud under the three placement schemes. The meter attributes every
transferred byte to one of the traffic categories below so experiments can
report both the total and its decomposition.
"""

from __future__ import annotations

import enum
from typing import Dict


class TrafficCategory(enum.Enum):
    """Where a transferred byte came from / went to."""

    # Enum's default ``__hash__`` hashes the member *name* string; metering
    # keys every dispatch by category, so use identity hashing (enum members
    # are singletons, equality already is identity) to keep the per-message
    # meter charge off the string-hash path.
    __hash__ = object.__hash__

    #: Origin server -> beacon point: the single per-cloud update transfer.
    UPDATE_SERVER_TO_BEACON = "update_server_to_beacon"
    #: Beacon point -> document holders: intra-cloud update fan-out.
    UPDATE_FANOUT = "update_fanout"
    #: Peer cache -> requesting cache on a local miss served in-cloud.
    PEER_TRANSFER = "peer_transfer"
    #: Origin server -> cache on a group miss.
    ORIGIN_FETCH = "origin_fetch"
    #: Lookup requests/responses, sub-range announcements, etc.
    CONTROL = "control"
    #: Beacon-point directory records migrating after a sub-range change.
    DIRECTORY_MIGRATION = "directory_migration"
    #: Background anti-entropy repair: version digests, proactive refreshes,
    #: invalidations, and orphan re-registrations (repro.audit).
    ANTI_ENTROPY = "anti_entropy"


class TrafficMeter:
    """Accumulates bytes per :class:`TrafficCategory`.

    The meter also tracks the observation interval so callers can normalize
    to bytes (or MB) per unit time, which is the paper's y-axis.
    """

    def __init__(self) -> None:
        self._bytes: Dict[TrafficCategory, int] = {c: 0 for c in TrafficCategory}
        self._messages: Dict[TrafficCategory, int] = {c: 0 for c in TrafficCategory}

    def record(self, category: TrafficCategory, num_bytes: int) -> None:
        """Attribute ``num_bytes`` (one message) to ``category``."""
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be >= 0, got {num_bytes}")
        self._bytes[category] += num_bytes
        self._messages[category] += 1

    def record_batch(
        self, category: TrafficCategory, total_bytes: int, count: int
    ) -> None:
        """Attribute ``count`` messages totalling ``total_bytes`` at once.

        One dict transaction for a whole same-tick batch; totals are
        indistinguishable from ``count`` individual :meth:`record` calls.
        """
        if total_bytes < 0:
            raise ValueError(f"total_bytes must be >= 0, got {total_bytes}")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self._bytes[category] += total_bytes
        self._messages[category] += count

    def bytes_for(self, category: TrafficCategory) -> int:
        """Total bytes recorded under ``category``."""
        return self._bytes[category]

    def messages_for(self, category: TrafficCategory) -> int:
        """Total messages recorded under ``category``."""
        return self._messages[category]

    @property
    def total_bytes(self) -> int:
        """All bytes across categories."""
        return sum(self._bytes.values())

    def megabytes_per_unit_time(self, duration: float) -> float:
        """Total MB transferred per unit time over ``duration`` time units."""
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        return self.total_bytes / (1024.0 * 1024.0) / duration

    def breakdown(self) -> Dict[str, int]:
        """Category-name -> bytes dictionary (for reports)."""
        return {category.value: count for category, count in self._bytes.items()}

    def merge(self, other: "TrafficMeter") -> None:
        """Fold another meter's counters into this one."""
        for category in TrafficCategory:
            self._bytes[category] += other._bytes[category]
            self._messages[category] += other._messages[category]

    def reset(self) -> None:
        """Zero every counter."""
        for category in TrafficCategory:
            self._bytes[category] = 0
            self._messages[category] = 0

    def __eq__(self, other: object) -> bool:
        """Meters are equal when every per-category counter matches.

        Supports the parallel-vs-serial sweep equivalence checks, which
        compare whole result objects by value.
        """
        if not isinstance(other, TrafficMeter):
            return NotImplemented
        return self._bytes == other._bytes and self._messages == other._messages

    def __repr__(self) -> str:
        mb = self.total_bytes / (1024.0 * 1024.0)
        return f"TrafficMeter(total={mb:.2f} MB)"
