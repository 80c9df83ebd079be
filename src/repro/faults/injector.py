"""Seeded fault injection wrapping the message transport.

:class:`FaultInjector` sits between the cloud protocols and a
:class:`~repro.network.transport.Transport`. Every delivery attempt is
charged to the traffic meter exactly as a bare transport send would be (the
bytes did go out on the wire), and then the injector rolls the message's
fate from its seeded RNG:

* **dropped** — the message never arrives; :meth:`deliver` returns ``None``
  and the sender's retry policy takes over.
* **duplicated** — a second copy is charged to the meter (the protocols are
  idempotent, so duplicates cost bandwidth, not correctness).
* **delayed** — the plan's extra latency is added to the returned one-way
  latency.

Determinism: all randomness flows from ``derive_seed(plan.seed, ...)``, and
the RNG is consulted only when the relevant probability is non-zero, so a
zero-fault plan draws nothing and the injector is byte-identical to the bare
transport. Because every experiment run owns its injector, serial and
parallel sweeps observe identical fault sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.faults.plan import FaultPlan
from repro.network.bandwidth import TrafficCategory
from repro.network.transport import (
    CONTROL_MESSAGE_BYTES,
    TRANSFER_HEADER_BYTES,
    Transport,
)
from repro.simulation.rng import derive_seed

import random


@dataclass
class FaultStats:
    """Wire-level fault counters accumulated by one injector."""

    delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    #: Bytes of every attempt charged to the meter through this injector
    #: (drops and duplicates included) — the auditor's conservation check
    #: cross-references this against the transport's attempt ledger.
    bytes_attempted: int = 0
    #: Drops decomposed by traffic category (category value -> count).
    dropped_by_category: Dict[str, int] = field(default_factory=dict)

    def record_drop(self, category: TrafficCategory) -> None:
        """Count one dropped message under ``category``."""
        self.dropped += 1
        key = category.value
        self.dropped_by_category[key] = self.dropped_by_category.get(key, 0) + 1

    @property
    def attempts(self) -> int:
        """Total delivery attempts observed."""
        return self.delivered + self.dropped

    def as_dict(self) -> Dict[str, float]:
        """Flat summary for reports."""
        return {
            "messages_delivered": float(self.delivered),
            "messages_dropped": float(self.dropped),
            "messages_duplicated": float(self.duplicated),
            "messages_delayed": float(self.delayed),
        }

    def __repr__(self) -> str:
        return (
            f"FaultStats(delivered={self.delivered}, dropped={self.dropped}, "
            f"duplicated={self.duplicated}, delayed={self.delayed})"
        )


class FaultInjector:
    """Applies a :class:`FaultPlan` to every message of a transport.

    Parameters
    ----------
    plan:
        The fault description. A zero plan makes the injector a pure
        pass-through (no RNG draws, identical accounting).
    transport:
        The underlying byte-accounted fabric.
    seed:
        Optional override of ``plan.seed`` (e.g. derived per experiment so
        sweep points stay independent).
    clock:
        Optional zero-argument callable returning the current simulated
        time, consulted only to evaluate transient (healing) partitions.
        Without a clock, time is pinned at 0.0 — transient partitions with
        a positive heal time behave as permanent.
    """

    def __init__(
        self,
        plan: FaultPlan,
        transport: Transport,
        seed: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.plan = plan
        self.transport = transport
        self.clock = clock
        root = plan.seed if seed is None else seed
        self._rng = random.Random(derive_seed(root, "fault-injector"))
        self.stats = FaultStats()

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def deliver(
        self,
        src: int,
        dst: int,
        num_bytes: int,
        category: TrafficCategory,
    ) -> Optional[float]:
        """Attempt one delivery; returns the one-way latency, or ``None``.

        ``None`` means the message was lost (dropped or partitioned). The
        attempt is charged to the meter either way — lost bytes still
        crossed part of the wire.
        """
        plan = self.plan
        latency = self.transport.send(src, dst, num_bytes, category)
        self.stats.bytes_attempted += num_bytes
        if plan.partitioned_links and plan.is_partitioned(
            src, dst, self.clock() if self.clock is not None else 0.0
        ):
            self.stats.record_drop(category)
            return None
        # Without overrides the plan-wide rate needs no ``loss_for`` scan.
        if plan.link_loss or plan.category_loss:
            loss = plan.loss_for(category, src, dst)
        else:
            loss = plan.loss_rate
        if loss > 0.0 and (loss >= 1.0 or self._rng.random() < loss):
            self.stats.record_drop(category)
            return None
        if plan.duplicate_rate > 0.0 and self._rng.random() < plan.duplicate_rate:
            # The duplicate burns bandwidth; protocols are idempotent.
            self.transport.send(src, dst, num_bytes, category)
            self.stats.duplicated += 1
            self.stats.bytes_attempted += num_bytes
        if plan.delay_rate > 0.0 and self._rng.random() < plan.delay_rate:
            self.stats.delayed += 1
            latency += plan.delay_minutes
        self.stats.delivered += 1
        return latency

    def deliver_control(self, src: int, dst: int) -> Optional[float]:
        """Attempt one control-sized message."""
        return self.deliver(src, dst, CONTROL_MESSAGE_BYTES, TrafficCategory.CONTROL)

    def deliver_document(
        self,
        src: int,
        dst: int,
        document_bytes: int,
        category: TrafficCategory,
    ) -> Optional[float]:
        """Attempt one document transfer (body + protocol header)."""
        if document_bytes <= 0:
            raise ValueError(f"document_bytes must be > 0, got {document_bytes}")
        return self.deliver(
            src, dst, document_bytes + TRANSFER_HEADER_BYTES, category
        )

    def __repr__(self) -> str:
        return f"FaultInjector(plan={self.plan!r}, stats={self.stats!r})"
