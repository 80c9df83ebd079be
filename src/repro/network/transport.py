"""Simulated message transport with latency and byte accounting.

The transport charges every message to a :class:`TrafficCategory` on a
:class:`TrafficMeter` and computes its delivery latency from the topology.
Delivery is accounted-synchronous (:meth:`send`): the caller gets the latency
back and continues immediately. The paper's metrics are throughput/byte
statistics plus *computed* client latencies, so an asynchronous in-flight
model would add heap pressure without changing any reported number.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.network.bandwidth import TrafficCategory, TrafficMeter
from repro.network.topology import NetworkTopology, ms_to_minutes

#: Size of a control message (lookup request/response, announcements). The
#: paper counts lookups in *load* units; bytes only matter for Figures 8-9,
#: where control traffic is a negligible constant — we still account for it.
CONTROL_MESSAGE_BYTES = 256

#: Per-document-transfer protocol overhead (HTTP-ish headers).
TRANSFER_HEADER_BYTES = 512


class LatencyLine(Dict[int, float]):
    """One-way latencies between one fixed node and any other, in minutes.

    ``line[other]`` is computed through :meth:`Transport.latency_minutes`
    on first read and kept: a topology's pairwise latencies never change
    (``EuclideanTopology.add_node`` only adds positions), so a kept value
    cannot go stale. ``outbound`` lines run *from* the anchor, the others
    *to* it; the two are kept apart because an explicit latency matrix is
    symmetric only to a tolerance.
    """

    __slots__ = ("_latency_minutes", "_anchor", "_outbound")

    def __init__(
        self,
        latency_minutes: Callable[[int, int], float],
        anchor: int,
        outbound: bool,
    ) -> None:
        super().__init__()
        self._latency_minutes = latency_minutes
        self._anchor = anchor
        self._outbound = outbound

    def __missing__(self, other: int) -> float:
        if self._outbound:
            value = self._latency_minutes(self._anchor, other)
        else:
            value = self._latency_minutes(other, self._anchor)
        self[other] = value
        return value


class Transport:
    """Message fabric between nodes of one simulated edge network.

    Parameters
    ----------
    topology:
        Supplies per-pair latency. May be ``None`` for pure-throughput
        experiments, in which case all latencies are 0.
    meter:
        Byte accounting sink. A fresh meter is created when omitted.
    """

    def __init__(
        self,
        topology: Optional[NetworkTopology] = None,
        meter: Optional[TrafficMeter] = None,
    ) -> None:
        self.topology = topology
        self.meter = meter if meter is not None else TrafficMeter()
        # Attempt ledger: every send is counted here *and* charged to the
        # meter, so the invariant auditor can verify conservation (bytes on
        # the meter == bytes attempted through the transport). Kept separate
        # from the meter because meters may be shared across transports.
        self.messages_attempted = 0
        self.bytes_attempted = 0
        # Memoised latency lines, keyed (anchor, outbound), and the
        # topology they were computed from (``topology`` is assignable).
        self._lines: Dict[Tuple[int, bool], LatencyLine] = {}
        self._lines_topology = topology

    # ------------------------------------------------------------------
    # Latency model
    # ------------------------------------------------------------------
    def latency_minutes(self, src: int, dst: int) -> float:
        """One-way delivery latency between two nodes, in simulated minutes."""
        if self.topology is None or src == dst:
            return 0.0
        return ms_to_minutes(self.topology.latency_ms(src, dst))

    def latencies_from(self, src: int) -> LatencyLine:
        """Memoised ``{dst: latency_minutes(src, dst)}``, filled on demand.

        For ranking many candidates against one node (nearest holder,
        nearest live stand-in): one dict read per candidate instead of a
        distance computation.
        """
        return self._line(src, True)

    def latencies_to(self, dst: int) -> LatencyLine:
        """Memoised ``{src: latency_minutes(src, dst)}``, filled on demand."""
        return self._line(dst, False)

    def _line(self, anchor: int, outbound: bool) -> LatencyLine:
        if self._lines_topology is not self.topology:
            self._lines = {}
            self._lines_topology = self.topology
        line = self._lines.get((anchor, outbound))
        if line is None:
            line = LatencyLine(self.latency_minutes, anchor, outbound)
            self._lines[(anchor, outbound)] = line
        return line

    def rtt_minutes(self, src: int, dst: int) -> float:
        """Round-trip latency in simulated minutes."""
        return 2.0 * self.latency_minutes(src, dst)

    # ------------------------------------------------------------------
    # Sends
    # ------------------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        num_bytes: int,
        category: TrafficCategory,
    ) -> float:
        """Account a message and return its one-way latency in minutes.

        A zero-byte message is legal (pure signalling) and still charges one
        message to the meter.
        """
        self.messages_attempted += 1
        self.bytes_attempted += num_bytes
        # ``meter.record`` and ``latency_minutes``, in place (as the fabric's
        # fast-path ``_charge`` does): one frame per slow-path wire attempt.
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be >= 0, got {num_bytes}")
        meter = self.meter
        meter._bytes[category] += num_bytes
        meter._messages[category] += 1
        topology = self.topology
        if topology is None or src == dst:
            return 0.0
        return ms_to_minutes(topology.latency_ms(src, dst))

    def send_batch(
        self,
        legs: "Sequence[tuple[int, int, int]]",
        category: TrafficCategory,
    ) -> float:
        """Account a same-tick batch of ``(src, dst, num_bytes)`` sends.

        One ledger/meter transaction for the whole batch — totals are
        indistinguishable from per-leg :meth:`send` calls. Returns the
        slowest one-way latency (when the last leg lands).
        """
        count = len(legs)
        if count == 0:
            return 0.0
        total = 0
        for _, _, num_bytes in legs:
            total += num_bytes
        self.messages_attempted += count
        self.bytes_attempted += total
        self.meter.record_batch(category, total, count)
        if self.topology is None:
            return 0.0
        slowest = 0.0
        for src, dst, _ in legs:
            latency = self.latency_minutes(src, dst)
            if latency > slowest:
                slowest = latency
        return slowest

    def send_control(self, src: int, dst: int) -> float:
        """Send one control-sized message; returns its latency."""
        return self.send(src, dst, CONTROL_MESSAGE_BYTES, TrafficCategory.CONTROL)

    def send_document(
        self,
        src: int,
        dst: int,
        document_bytes: int,
        category: TrafficCategory,
    ) -> float:
        """Transfer a document body plus protocol header; returns latency."""
        if document_bytes <= 0:
            raise ValueError(f"document_bytes must be > 0, got {document_bytes}")
        return self.send(src, dst, document_bytes + TRANSFER_HEADER_BYTES, category)

    def reset_accounting(self) -> None:
        """Zero the meter and the attempt ledger together.

        Resetting only the meter would desynchronize it from the ledger and
        make the auditor's conservation check report a false violation, so
        measurement-window resets must go through this method.
        """
        self.meter.reset()
        self.messages_attempted = 0
        self.bytes_attempted = 0

    def __repr__(self) -> str:
        topo = type(self.topology).__name__ if self.topology else "none"
        return f"Transport(topology={topo}, meter={self.meter!r})"
