"""Deterministic per-role, per-phase work attribution (cost profiling).

The telemetry registry (:mod:`repro.observe.registry`) answers "what
happened on the wire"; this module answers "who did the work". A
:class:`WorkProfile` holds one integer pair per protocol *phase* — how many
times the phase ran (``counts``) and how many abstract work units it
consumed (``units``) — charged at the role seams of
:class:`~repro.core.node.CacheNode`, :class:`~repro.core.roles.BeaconRole`
and the update-propagation strategies:

========================  =========  =====================================
phase                     role       one unit is
========================  =========  =====================================
``beacon_lookup``         beacon     one lookup-RPC leg serviced
``holder_verify``         beacon     one holder actually probed by
                                     ``answer_lookup`` (none when the
                                     entry's stamp was trusted)
``peer_fetch``            holder     one peer-transfer wire attempt
``origin_fetch``          origin     one origin-fetch wire attempt (a
                                     beacon-routed fetch charges both legs)
``placement``             requester  one live holder examined by a store
                                     decision, plus the decision itself
``fanout_leg``            beacon     one update push attempt, star or tree
========================  =========  =====================================

Charging follows the telemetry attach contract: the roles report through
the cloud's one attach-time handle (``cloud.watch``, a
:class:`~repro.observe.registry.RoleWatch`) behind a single ``is not None``
check, so a cloud with nothing attached executes the exact same instruction
stream as before the profiler existed (pinned by the structural-equivalence
tests), and charging draws no randomness and sends no messages — the
numbers are a pure function of the protocol's own deterministic execution.
A cloud charges one profile: the one attached with ``attach_profile``, else
its flight recorder's, and a bound recorder reads that same profile.

``record_walk`` additionally feeds a ``holder_walk_length`` log-histogram
(through a journal of walk lengths that :meth:`LogHistogram.record_many`
folds, as the telemetry registry's histograms are) and a per-window
hottest-documents table, which the flight recorder
(:mod:`repro.observe.flight`) drains at each window close.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.observe.histogram import LogHistogram

__all__ = ["PHASES", "PHASE_ROLES", "WorkProfile"]

#: Every phase a role may charge, in protocol order.
PHASES: Tuple[str, ...] = (
    "beacon_lookup",
    "holder_verify",
    "peer_fetch",
    "origin_fetch",
    "placement",
    "fanout_leg",
)

#: The protocol role that performs each phase's work.
PHASE_ROLES: Dict[str, str] = {
    "beacon_lookup": "beacon",
    "holder_verify": "beacon",
    "fanout_leg": "beacon",
    "peer_fetch": "holder",
    "origin_fetch": "origin",
    "placement": "requester",
}

#: Journalled walk lengths that trigger a fold into the histogram.
WALK_FOLD_EVERY = 512


class WorkProfile:
    """Cumulative per-phase work counters plus the holder-walk histogram.

    All state is integer counters and one fixed-bucket histogram: memory is
    O(phases) + O(distinct documents looked up in the current window), and
    two same-seed runs produce identical contents.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {phase: 0 for phase in PHASES}
        self.units: Dict[str, int] = {phase: 0 for phase in PHASES}
        self._walk_hist = LogHistogram(lower=1.0, upper=1e6, buckets_per_decade=4)
        #: Walk lengths not yet in :attr:`walk_hist`, in arrival order.
        self._walks: List[int] = []
        #: doc_id -> longest walk observed this window (drained per window).
        self._window_walks: Dict[int, int] = {}
        self._window_walk_max = 0

    # ------------------------------------------------------------------
    # Charging (called through the cloud's ``RoleWatch``)
    # ------------------------------------------------------------------
    def charge(self, phase: str, units: int = 1) -> None:
        """Record one run of ``phase`` costing ``units``."""
        self.counts[phase] += 1
        self.units[phase] += units

    def record_walk(self, doc_id: int, walked: int) -> None:
        """One answered lookup that probed ``walked`` holders (0 = trusted)."""
        self.counts["holder_verify"] += 1
        self.units["holder_verify"] += walked
        walks = self._walks
        walks.append(walked)
        if len(walks) >= WALK_FOLD_EVERY:
            self._fold_walks()
        if walked > self._window_walks.get(doc_id, -1):
            self._window_walks[doc_id] = walked
        if walked > self._window_walk_max:
            self._window_walk_max = walked

    def _fold_walks(self) -> None:
        walks = self._walks
        if walks:
            self._walk_hist.record_many(walks)
            del walks[:]

    @property
    def walk_hist(self) -> LogHistogram:
        """Distribution of ``answer_lookup`` walk lengths over the whole
        recording (walks of length 0 land in the underflow bucket)."""
        self._fold_walks()
        return self._walk_hist

    # ------------------------------------------------------------------
    # Snapshots and window drains (called by observers)
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Copies of the cumulative (counts, units) maps, for deltas."""
        return dict(self.counts), dict(self.units)

    def drain_window(self, top_k: int) -> Tuple[int, List[Tuple[int, int]]]:
        """Close the current window's walk table.

        Returns ``(max_walk, top_docs)`` where ``top_docs`` holds at most
        ``top_k`` ``(doc_id, walk)`` pairs, longest walk first (ties break
        toward the lower doc id, so the list is deterministic), then resets
        the window-local state. The cumulative counters and the histogram
        are untouched — only the windowed view drains.
        """
        top = sorted(
            self._window_walks.items(), key=lambda item: (-item[1], item[0])
        )[: max(0, top_k)]
        max_walk = self._window_walk_max
        self._window_walks = {}
        self._window_walk_max = 0
        return max_walk, top

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready cumulative summary (phases with any activity only)."""
        return {
            "phases": {
                phase: [self.counts[phase], self.units[phase]]
                for phase in PHASES
                if self.counts[phase]
            },
            "holder_walk_length": self.walk_hist.to_dict(),
        }

    def __repr__(self) -> str:
        busy = {p: self.units[p] for p in PHASES if self.counts[p]}
        return f"WorkProfile(units={busy!r})"
