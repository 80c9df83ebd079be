"""The message-dispatch fabric: one seam for every protocol message.

Every inter-node message of the cache-cloud protocols — lookup RPCs, peer
transfers, origin fetches, update notices and fan-out pushes, holder
registrations, eviction notices, directory migrations — is dispatched
through a single :class:`MessageFabric`. Per dispatch the fabric

* charges the :class:`~repro.network.bandwidth.TrafficMeter` and the
  transport's attempt ledger (the invariant auditor's conservation check
  reads both),
* applies the :class:`~repro.faults.injector.FaultInjector` as *middleware*
  when one is attached — loss/delay/duplication/partition on each wire
  attempt, plus the plan's :class:`~repro.faults.plan.RetryPolicy` for
  reliable dispatches,
* appends one :class:`DispatchRecord` per wire attempt to the dispatch
  log when one is attached — the one capture of what crossed the wire, and
* returns the accumulated latency (successful legs plus timeout/backoff
  penalties), so client-perceived latency reflects loss.

Because retry/timeout behaviour lives *here*, the protocol roles
(:mod:`repro.core.node`, :mod:`repro.core.roles`) are written exactly once:
with no injector attached every dispatch succeeds on its single attempt and
the fabric is byte-identical to a bare transport; attaching an injector
changes delivery fates, not protocol code.

Dispatch styles
---------------
* **best-effort** (``reliable=False``) — one attempt, no retransmission.
  Eviction notices use this: a lost notice leaves a stale directory entry
  that the next lookup repairs.
* **reliable** (``reliable=True``) — bounded retransmission under the
  attached plan's retry policy; the returned :class:`Delivery` says whether
  the message ultimately arrived.
* **forced** (:meth:`send_forced_document`) — reliable, then delivered
  out-of-band through the bare transport if the retry budget is exhausted.
  Origin fetches are the last line of service: the client ultimately
  receives the document anyway (reality: a different route / longer TCP
  recovery), so the final attempt bypasses the fault middleware and is
  counted as a forced delivery.
* **system** (:meth:`send_system`) — infrastructure-plane traffic (cycle
  announcements, directory migrations, buddy-replica syncs, anti-entropy
  digests) that is accounted and logged but not subject to the fault
  middleware; the fault model covers the request/update protocols, and
  these transfers carry their own robustness story (see DESIGN.md).
* **fan-out** (:meth:`send_fanout`) — one document body pushed reliably
  from one source to many holders at one tick (an update's holder legs);
  per leg it is exactly a reliable dispatch.

The attempt plan
----------------
Who is attached changes at attach/detach, not per message, so that is when
the fabric asks: :meth:`MessageFabric._sync_fast_path` rebuilds the
*attempt plan* — the bound retry policy plus one slot per
:class:`TrafficCategory` with the category's name and the telemetry journal
and flight-recorder row its one observer handle (``cloud.watch``) gives it —
and the one general attempt body (:meth:`MessageFabric._attempt`) does
arithmetic on those handles.

The plan with nothing bound is the *fast path* (``_fast_path``): every
dispatch lands on its single attempt with nothing watching, so the
dispatch styles collapse to an inlined meter-and-ledger charge plus a
latency read — no retry loop, no ``DispatchRecord``, an interned
``Delivery`` in the zero-latency case, one meter transaction per lookup
RPC, :meth:`send_system_batch`, :meth:`send_exchange` or
:meth:`send_fanout`. DESIGN.md §3.1 tabulates what is bound, what each
plane adds per attempt and the ordering rules that keep every artifact
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Protocol, Sequence, Tuple

from repro.core.overload import OverloadController
from repro.faults.injector import FaultInjector
from repro.faults.plan import RetryPolicy
from repro.network.bandwidth import TrafficCategory
from repro.network.topology import ms_to_minutes
from repro.network.transport import (
    CONTROL_MESSAGE_BYTES,
    TRANSFER_HEADER_BYTES,
    Transport,
)

#: Control traffic category, hoisted so the RPC fast path pays no enum
#: attribute lookup per call.
_CONTROL = TrafficCategory.CONTROL

#: Milliseconds of simulated time per simulated minute (histogram export).
_MINUTES_TO_MS = 60_000.0


@dataclass(frozen=True)
class Delivery:
    """Outcome of one fabric dispatch.

    ``latency`` is in simulated minutes and includes the successful leg(s)
    plus every timeout and backoff penalty accrued along the way, so a
    failed delivery still reports the time the sender spent trying.
    """

    ok: bool
    latency: float
    attempts: int = 1


@dataclass(frozen=True)
class DispatchRecord:
    """One wire attempt as issued by a protocol, before fault middleware.

    The dispatch log records what the protocols *sent*, not what arrived —
    which is exactly the quantity that must be identical between a run with
    no injector and a run with a zero-fault injector (the structural
    equivalence guarantee tested in ``tests/test_core_fabric.py``).
    Construction is lazy: no record object exists unless a capture list is
    attached (capture also disables the fast path, so the general path's
    per-attempt bookkeeping sees every wire attempt).
    """

    src: int
    dst: int
    num_bytes: int
    category: str


@dataclass
class FabricStats:
    """Wire-level dispatch counters accumulated by one fabric."""

    dispatches: int = 0
    retries: int = 0
    timeouts: int = 0
    forced_deliveries: int = 0
    #: Attempts turned away by a full destination queue (service model).
    rejections: int = 0

    def reset(self) -> None:
        """Zero every counter (measurement-window resets)."""
        self.dispatches = 0
        self.retries = 0
        self.timeouts = 0
        self.forced_deliveries = 0
        self.rejections = 0


#: Interned outcome of the overwhelmingly common dispatch: first attempt,
#: delivered, zero latency (topology-less transports and intra-node hops).
#: The fast path returns this singleton instead of allocating; ``Delivery``
#: is frozen, so sharing is safe.
DELIVERED_FREE = Delivery(ok=True, latency=0.0, attempts=1)


class CategorySlot(NamedTuple):
    """What a wire attempt needs of one traffic category (an observer's
    handle is ``None`` while it is not attached; ``instruments`` is the
    telemetry journal the attempt appends to, ``flight_row`` the recorder's
    journal of the open window)."""

    name: str
    instruments: Any
    flight_row: Any


#: Every category's slot with no observer handle bound.
UNWATCHED = {category: CategorySlot(category.value, None, None) for category in TrafficCategory}


class FabricWatch(Protocol):
    """What the fabric reads of its observer handle (``cloud.watch``, a
    :class:`~repro.observe.registry.RoleWatch`): every category's slot
    (:data:`UNWATCHED` when it binds no handle)."""

    slots: Dict[TrafficCategory, CategorySlot]


class MessageFabric:
    """Single dispatch seam between the protocol roles of one cloud.

    Parameters
    ----------
    transport:
        The byte-accounted wire (meter + attempt ledger).
    """

    def __init__(self, transport: Transport) -> None:
        self.transport = transport
        self.stats = FabricStats()
        self._faults: Optional[FaultInjector] = None
        self._dispatch_log: Optional[List[DispatchRecord]] = None
        self._watch: Optional[FabricWatch] = None
        self._service: Optional[OverloadController] = None
        self._sync_fast_path()

    def _sync_fast_path(self) -> None:
        """Rebuild the attempt plan: what a dispatch would otherwise re-ask
        per message — is anything attached (``_fast_path``), which retry
        ladder governs, each category's slot (the watch's)."""
        faults, service, watch = self._faults, self._service, self._watch
        self._slots = UNWATCHED if watch is None else watch.slots
        self._fast_path = (
            faults is None
            and self._dispatch_log is None
            and service is None
            and self._slots is UNWATCHED
        )
        self._policy: Optional[RetryPolicy] = None
        if faults is not None:
            self._policy = faults.plan.retry
        elif service is not None:
            self._policy = service.config.retry

    @property
    def fast_path(self) -> bool:
        """Whether nothing is bound: every dispatch lands on its one attempt."""
        return self._fast_path

    # ------------------------------------------------------------------
    # Middleware management
    # ------------------------------------------------------------------
    @property
    def faults(self) -> Optional[FaultInjector]:
        """The attached fault middleware, or ``None``."""
        return self._faults

    def attach_faults(self, injector: FaultInjector) -> None:
        """Install ``injector`` as the delivery middleware.

        The injector must wrap this fabric's own transport so byte
        accounting lands on the same meter and attempt ledger.
        """
        if injector.transport is not self.transport:
            raise ValueError("fault injector must wrap the fabric's transport")
        self._faults = injector
        self._sync_fast_path()

    def detach_faults(self) -> None:
        """Remove the fault middleware (e.g. for post-run quiescing).

        The injector's accumulated statistics survive on the detached
        object; only future dispatches bypass it.
        """
        self._faults = None
        self._sync_fast_path()

    @property
    def retry_policy(self) -> Optional[RetryPolicy]:
        """The active retry ladder for reliable dispatches.

        A fault plan's policy wins when an injector is attached; otherwise
        an attached service model may supply one (so queue rejections are
        retried even in a loss-free cloud); ``None`` means single-attempt.
        """
        return self._policy

    # ------------------------------------------------------------------
    # Service model (bounded queues / overload)
    # ------------------------------------------------------------------
    @property
    def service(self) -> Optional[OverloadController]:
        """The attached overload/service model, or ``None``."""
        return self._service

    def attach_service(self, controller: OverloadController) -> None:
        """Install ``controller`` as the per-node service model.

        Every delivered wire attempt is then admitted at its destination's
        bounded queue: queueing delay accrues into the attempt's latency,
        and a full queue converts the attempt into a loss (so the retry
        ladder — fault plan's or the controller's own — applies).
        Attaching disables the dispatch fast path; a fabric with no
        service model is bit-identical to one that never heard of queues.
        """
        self._service = controller
        self._sync_fast_path()

    def detach_service(self) -> Optional[OverloadController]:
        """Remove and return the service model (its statistics survive)."""
        controller = self._service
        self._service = None
        self._sync_fast_path()
        return controller

    # ------------------------------------------------------------------
    # Observers (dispatch capture + the watch)
    # ------------------------------------------------------------------
    @property
    def dispatch_log(self) -> Optional[List[DispatchRecord]]:
        """The live wire-attempt capture list, or ``None``."""
        return self._dispatch_log

    @dispatch_log.setter
    def dispatch_log(self, records: Optional[List[DispatchRecord]]) -> None:
        self._dispatch_log = records
        self._sync_fast_path()

    @property
    def watch(self) -> Optional[FabricWatch]:
        """The one observer handle, set by ``CacheCloud`` to ``cloud.watch``
        at every observer attach. A watch that binds no handle (none,
        or a work profile alone) keeps the fast path enabled."""
        return self._watch

    @watch.setter
    def watch(self, watch: Optional[FabricWatch]) -> None:
        self._watch = watch
        self._sync_fast_path()

    def _watch_telemetry(self, telemetry: Any) -> None:
        from repro.observe.registry import RoleWatch  # observe imports core

        self.watch = None if telemetry is None else RoleWatch(telemetry, None)

    #: Write-only: a telemetry-only watch on a bare fabric, for
    #: ``benchmarks/perf/probes.py::fabric_dispatch``, which assigns
    #: ``fabric.telemetry``; a cloud's fabric is watched through ``cloud.watch``.
    telemetry = property(fset=_watch_telemetry)

    def capture_dispatches(self) -> List[DispatchRecord]:
        """Start recording wire attempts; returns the live record list."""
        records: List[DispatchRecord] = []
        self.dispatch_log = records
        return records

    def stop_dispatch_capture(self) -> None:
        """Stop recording wire attempts."""
        self.dispatch_log = None

    # ------------------------------------------------------------------
    # Wire attempts (the only two ways bytes leave a node)
    # ------------------------------------------------------------------
    def _charge(self, num_bytes: int, category: TrafficCategory) -> None:
        """Fast-path accounting: one message on the meter and the ledger.

        Inlines :meth:`Transport.send` minus the latency read. Callers are
        internal and pass validated non-negative sizes, so the meter's
        negative-bytes guard is skipped here.
        """
        transport = self.transport
        transport.messages_attempted += 1
        transport.bytes_attempted += num_bytes
        meter = transport.meter
        meter._bytes[category] += num_bytes
        meter._messages[category] += 1

    def _attempt(
        self, src: int, dst: int, num_bytes: int, category: TrafficCategory, bare: bool = False
    ) -> Optional[float]:
        """One wire attempt through the attached planes.

        Returns the one-way latency, or ``None`` if the middleware lost the
        message. The attempt is charged to the meter and the transport's
        ledger either way — lost bytes still crossed part of the wire.
        ``bare`` skips the fault and service middleware (forced deliveries,
        system plane) but not the observers.

        With a service model attached, an attempt that survives the wire
        must still be admitted at the destination's bounded queue: queueing
        delay (wait + service) is added to the leg's latency, and a full
        queue converts the attempt into a loss. Attempts the wire already
        lost never reach the queue, which keeps the retry ladder's timeout
        single-charged: a rejected attempt costs the timeout (as any loss
        does) but no service delay, a delayed-but-delivered one its queue
        wait but no timeout.
        """
        slot = self._slots[category]
        instruments = slot.instruments
        log = self._dispatch_log
        if log is not None:
            log.append(DispatchRecord(src, dst, num_bytes, slot.name))
        self.stats.dispatches += 1
        faults = self._faults
        if faults is None or bare:
            latency: Optional[float] = self.transport.send(
                src, dst, num_bytes, category
            )
        else:
            latency = faults.deliver(src, dst, num_bytes, category)
        service = self._service
        if service is not None and latency is not None and not bare:
            delay, backlog = service.admit_wire(dst, slot.name, num_bytes)
            if delay is None:
                # Full queue: the destination turned the message away. The
                # caller sees an ordinary loss, so reliable dispatches
                # retry under the active ladder.
                self.stats.rejections += 1
                latency = None
                if self._watch is not None:  # each observer's count, in place
                    if instruments is not None:
                        instruments.rejected += 1
                    row = slot.flight_row
                    if row is not None:
                        row.rejected += 1
            else:
                if delay > 0.0:
                    latency += delay
                if instruments is not None:  # ``record_queueing``, in place
                    if delay > 0.0:
                        instruments.note_delay(delay * _MINUTES_TO_MS)
                    instruments.backlogs[dst] = backlog
        # Each observer only journals the attempt (bound ``append``s, no
        # frame); ``Telemetry.fold`` and the recorder's window close do the
        # counting, the sums and the histograms.
        if instruments is not None:  # ``CategoryInstruments.record``, in place
            instruments.note_size(num_bytes)
            if latency is not None:
                instruments.note_latency(latency * _MINUTES_TO_MS)
        row = slot.flight_row
        if row is not None:  # ``FlightRecorder.record_attempt``, row in hand
            row.note_size(num_bytes)
            if latency is not None:
                row.note_latency(latency * _MINUTES_TO_MS)
        return latency

    def _bare(
        self, src: int, dst: int, num_bytes: int, category: TrafficCategory
    ) -> float:
        """One wire attempt *bypassing* the fault and service middleware.

        Used for forced deliveries and system-plane traffic; still logged,
        charged and observed so the conservation invariant holds.
        """
        latency = self._attempt(src, dst, num_bytes, category, bare=True)
        assert latency is not None  # nothing on the bare path loses messages
        return latency

    # ------------------------------------------------------------------
    # Dispatch styles
    # ------------------------------------------------------------------
    def send_control(self, src: int, dst: int, *, reliable: bool = False) -> Delivery:
        """Dispatch one control-sized message."""
        return self.send(src, dst, CONTROL_MESSAGE_BYTES, _CONTROL, reliable=reliable)

    def send_document(
        self,
        src: int,
        dst: int,
        document_bytes: int,
        category: TrafficCategory,
        *,
        reliable: bool = False,
    ) -> Delivery:
        """Dispatch a document body plus protocol header."""
        if document_bytes <= 0:
            raise ValueError(f"document_bytes must be > 0, got {document_bytes}")
        return self.send(
            src, dst, document_bytes + TRANSFER_HEADER_BYTES, category, reliable=reliable
        )

    def send(
        self,
        src: int,
        dst: int,
        num_bytes: int,
        category: TrafficCategory,
        *,
        reliable: bool = False,
    ) -> Delivery:
        """Dispatch one message.

        Only *reliable* dispatches wait for acknowledgement: a lost
        best-effort message costs nothing in sender latency and ticks no
        timeout counter (fire-and-forget), while every lost reliable
        attempt costs the policy's timeout plus the retransmission backoff.
        """
        if self._fast_path:
            # No middleware, no observers: the single attempt always lands.
            self.stats.dispatches += 1
            self._charge(num_bytes, category)
            topology = self.transport.topology
            if topology is None or src == dst:
                return DELIVERED_FREE
            return Delivery(True, ms_to_minutes(topology.latency_ms(src, dst)), 1)
        policy = self._policy
        retrying = reliable and policy is not None
        attempts = policy.max_attempts if retrying and policy is not None else 1
        latency = 0.0
        for attempt in range(attempts):
            if attempt > 0:
                assert policy is not None  # attempts > 1 implies a policy
                self.stats.retries += 1
                latency += policy.backoff_minutes(attempt - 1)
            leg = self._attempt(src, dst, num_bytes, category)
            if leg is not None:
                return Delivery(True, latency + leg, attempt + 1)
            if retrying and policy is not None:
                self.stats.timeouts += 1
                latency += policy.timeout_minutes
        return Delivery(False, latency, attempts)

    def send_forced_document(
        self,
        src: int,
        dst: int,
        document_bytes: int,
        category: TrafficCategory,
    ) -> float:
        """Reliably dispatch a document, forcing delivery past the budget.

        Returns the accumulated latency; the message *always* arrives. The
        forced out-of-band leg is one more row of the dispatch log, after
        the attempts the retry budget covered.
        """
        delivery = self.send_document(src, dst, document_bytes, category, reliable=True)
        if delivery.ok:
            return delivery.latency
        self.stats.forced_deliveries += 1
        return delivery.latency + self._bare(
            src, dst, document_bytes + TRANSFER_HEADER_BYTES, category
        )

    def send_system(
        self, src: int, dst: int, num_bytes: int, category: TrafficCategory
    ) -> float:
        """Dispatch infrastructure-plane traffic (no fault middleware)."""
        if self._fast_path:
            self.stats.dispatches += 1
            self._charge(num_bytes, category)
            topology = self.transport.topology
            if topology is None or src == dst:
                return 0.0
            return ms_to_minutes(topology.latency_ms(src, dst))
        return self._bare(src, dst, num_bytes, category)

    def send_system_control(self, src: int, dst: int) -> float:
        """One control-sized system-plane message."""
        return self.send_system(src, dst, CONTROL_MESSAGE_BYTES, _CONTROL)

    def send_system_batch(
        self,
        legs: Sequence[Tuple[int, int, int]],
        category: TrafficCategory,
    ) -> float:
        """Same-tick system-plane sends batched into one meter transaction.

        ``legs`` is a sequence of ``(src, dst, num_bytes)`` wire attempts
        that all happen at the same simulated instant (a cycle's range
        announcements, a buddy-sync sweep). Returns the slowest one-way
        latency — the batch has "landed" when its last leg has.

        On the fast path the whole batch is charged in one meter/ledger
        transaction; with observers attached each leg goes through
        :meth:`_bare` individually so capture and telemetry see the exact
        per-attempt stream (message counts and byte totals are identical
        either way).
        """
        if not legs:
            return 0.0
        if not self._fast_path:
            slowest = 0.0
            for src, dst, num_bytes in legs:
                latency = self._bare(src, dst, num_bytes, category)
                if latency > slowest:
                    slowest = latency
            return slowest
        self.stats.dispatches += len(legs)
        return self.transport.send_batch(legs, category)

    def send_exchange(
        self,
        src: int,
        dst: int,
        forward_bytes: int,
        reverse_bytes: int,
        category: TrafficCategory,
    ) -> Tuple[bool, bool]:
        """A same-tick best-effort request/response pair (digest exchange).

        Returns ``(forward_ok, reverse_ok)``; the reverse leg is only
        attempted when the forward leg arrived (a server cannot answer a
        digest it never received). On the fast path both legs are charged
        as one meter transaction.
        """
        if self._fast_path:
            total = forward_bytes + reverse_bytes
            self.stats.dispatches += 2
            transport = self.transport
            transport.messages_attempted += 2
            transport.bytes_attempted += total
            transport.meter.record_batch(category, total, 2)
            return (True, True)
        forward = self.send(src, dst, forward_bytes, category, reliable=False)
        if not forward.ok:
            return (False, False)
        reverse = self.send(dst, src, reverse_bytes, category, reliable=False)
        return (True, reverse.ok)

    def send_fanout(
        self,
        src: int,
        dsts: Sequence[int],
        document_bytes: int,
        category: TrafficCategory,
    ) -> List[Delivery]:
        """Same-tick reliable pushes of one document body to many holders.

        Returns one :class:`Delivery` per destination, in ``dsts`` order.
        On the fast path every leg lands on its first attempt, so the whole
        burst is one meter/ledger transaction; with anything bound in the
        attempt plan each leg goes through :meth:`send` in ``dsts`` order,
        so the fault middleware draws the same RNG stream and capture,
        telemetry, the flight recorder and the service queues see the same
        per-attempt stream as per-leg :meth:`send_document` calls.
        """
        legs = len(dsts)
        if not legs:
            return []
        if document_bytes <= 0:
            raise ValueError(f"document_bytes must be > 0, got {document_bytes}")
        num_bytes = document_bytes + TRANSFER_HEADER_BYTES
        if not self._fast_path:
            send = self.send
            return [
                send(src, dst, num_bytes, category, reliable=True) for dst in dsts
            ]
        total = legs * num_bytes
        self.stats.dispatches += legs
        transport = self.transport
        transport.messages_attempted += legs
        transport.bytes_attempted += total
        transport.meter.record_batch(category, total, legs)
        if transport.topology is None:
            return [DELIVERED_FREE] * legs
        latency = transport.latencies_from(src)
        return [Delivery(True, latency[dst], 1) for dst in dsts]

    def request_response(
        self,
        src: int,
        dst: int,
        hops: int,
        *,
        irh: int = 0,
        on_request_delivered: Optional[Callable[[int], None]] = None,
    ) -> Delivery:
        """A control-sized RPC: ``hops`` request legs plus one response leg.

        The whole RPC retries as a unit under the attached retry policy.
        ``on_request_delivered`` fires with ``irh`` on every attempt whose
        request legs all arrive — even if the response is then lost —
        mirroring a real server that does its work before its reply goes
        missing (this is how beacon load counters tick under loss; passing
        the IrH value through lets callers hand over a bound method instead
        of allocating a closure per request).
        """
        if self._fast_path:
            # Every leg lands: one meter transaction for the whole RPC.
            legs = hops + 1
            leg_bytes = legs * CONTROL_MESSAGE_BYTES
            self.stats.dispatches += legs
            transport = self.transport
            transport.messages_attempted += legs
            transport.bytes_attempted += leg_bytes
            meter = transport.meter
            meter._bytes[_CONTROL] += leg_bytes
            meter._messages[_CONTROL] += legs
            if on_request_delivered is not None:
                on_request_delivered(irh)
            topology = transport.topology
            if topology is None or src == dst:
                return DELIVERED_FREE
            latency = hops * ms_to_minutes(
                topology.latency_ms(src, dst)
            ) + ms_to_minutes(topology.latency_ms(dst, src))
            return Delivery(True, latency, 1)
        policy = self._policy
        attempts = policy.max_attempts if policy is not None else 1
        latency = 0.0
        for attempt in range(attempts):
            if attempt > 0:
                assert policy is not None
                self.stats.retries += 1
                latency += policy.backoff_minutes(attempt - 1)
            delivered = True
            for _ in range(hops):
                leg = self._attempt(src, dst, CONTROL_MESSAGE_BYTES, _CONTROL)
                if leg is None:
                    delivered = False
                    break
                latency += leg
            if delivered:
                if on_request_delivered is not None:
                    on_request_delivered(irh)
                response = self._attempt(
                    dst, src, CONTROL_MESSAGE_BYTES, _CONTROL
                )
                if response is None:
                    delivered = False
                else:
                    latency += response
            if delivered:
                return Delivery(True, latency, attempt + 1)
            if policy is not None:
                self.stats.timeouts += 1
                latency += policy.timeout_minutes
        return Delivery(False, latency, attempts)

    def __repr__(self) -> str:
        planes = {"faults": self._faults, "service": self._service, "watch": self._watch,
                  "capture": self._dispatch_log}
        bound = "+".join(name for name, plane in planes.items() if plane is not None) or "none"
        return (
            f"MessageFabric(transport={self.transport!r}, "
            f"planes={bound}, fast_path={self._fast_path}, "
            f"stats={self.stats!r})"
        )
