"""Span recorder for the traced pass: who spent the host's time.

Nothing under ``src/`` is edited. :meth:`Tracer.install` replaces, at class
level and before any cloud is built, the public callables that bound each
layer with timing wrappers; :meth:`Tracer.uninstall` puts the originals
back. A wrapper pushes a frame, runs the callable, and on return charges

* the span's *self time* — its duration minus the time its child spans
  covered — to the callable's layer, and
* its whole duration to the parent frame's child total,

so the per-layer self times add up to the traced wall-clock (what is left
over is ``host.unattributed_share``: the driver loop, RNG draws).

``handle_request``/``handle_update`` are the operation roots: they number
the operations, keep every call's duration (for the latency percentiles),
and switch on full span capture for a deterministic one-in-N sample of
operations, bounded by :data:`MAX_SPANS`.

Two callables are deliberately left unwrapped, so their time is their
caller's self time: ``CacheStorage.get`` is a C-level ``dict.get`` bound
per instance and cannot be wrapped from outside; and
``CacheStorage.expected_residence`` is a few-hundred-nanosecond estimate
that ``placement_context`` calls once per live holder — a wrapper would
cost several times what it measures. Its call count is still exact: it is
the work profile's ``placement`` units.

Wrappers are not free. :func:`calibrate` measures what one costs inside
its own span and what it adds to its caller, and the read-out subtracts
that per call; the correction is a floor (a bare no-op leaf), so layers
made of many tiny wrapped calls still read somewhat high.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer -> ((module, class or None, (callable names...)), ...)
TARGETS: Dict[str, Tuple[Tuple[str, Optional[str], Tuple[str, ...]], ...]] = {
    "workload": (
        ("repro.workload.documents", None, ("build_corpus",)),
        ("repro.workload.sydney", "SydneyTraceGenerator", ("__init__", "build_trace")),
    ),
    "simulation": (
        ("repro.simulation.engine", "Simulator", ("schedule_at", "run_until")),
    ),
    "experiments.runner": (
        ("repro.experiments.runner", None, ("run_experiment",)),
        ("repro.experiments.runner", "TraceFeeder", ("_process",)),
    ),
    "core.cloud": (
        ("repro.core.cloud", "CacheCloud", ("handle_request", "handle_update")),
    ),
    "core.node": (
        (
            "repro.core.node",
            "CacheNode",
            (
                "serve_miss",
                "fetch_direct",
                "origin_fallback",
                "placement_context",
                "admit_and_register",
                "notify_eviction",
            ),
        ),
    ),
    "core.roles": (
        (
            "repro.core.roles",
            "BeaconRole",
            (
                "answer_lookup",
                "propagate_update",
                "accept_registration",
                "accept_eviction",
            ),
        ),
        ("repro.core.roles", "OriginRole", ("refresh_holders",)),
    ),
    "core.directory": (
        (
            "repro.core.directory",
            "LookupDirectory",
            ("holders", "add_holder", "remove_holder", "extract_range", "ingest"),
        ),
    ),
    "core.fabric": (
        (
            "repro.core.fabric",
            "MessageFabric",
            (
                "request_response",
                "send",
                "send_document",
                "send_control",
                "send_forced_document",
                "send_system",
                "send_system_batch",
            ),
        ),
    ),
    "network.transport": (
        ("repro.network.transport", "Transport", ("send", "send_batch")),
    ),
    "edgecache": (
        (
            "repro.edgecache.storage",
            "CacheStorage",
            ("admit", "access", "remove"),
        ),
        ("repro.edgecache.cache", "EdgeCache", ("apply_update", "admit", "drop")),
    ),
    "core.ring": (
        ("repro.core.cloud", "CacheCloud", ("run_cycle",)),
        ("repro.core.ring", "BeaconRing", ("rebalance",)),
    ),
    "faults": (
        (
            "repro.faults.injector",
            "FaultInjector",
            ("deliver", "deliver_control", "deliver_document"),
        ),
    ),
    "core.overload": (
        (
            "repro.core.overload",
            "OverloadController",
            (
                "admit_request",
                "admit_message",
                "shed_lookup",
                "shed_peer_fetch",
                "defer_fanout",
            ),
        ),
    ),
    "observe": (
        (
            "repro.observe.registry",
            "Telemetry",
            (
                "count",
                "gauge",
                "histogram",
                "record_attempt",
                "observe_request",
                "begin_span",
                "end_span",
            ),
        ),
        (
            "repro.observe.flight",
            "FlightRecorder",
            (
                "advance",
                "observe_request",
                "observe_update",
                "record_attempt",
                "record_rejection",
            ),
        ),
    ),
    # The work profile is attached by the traced pass itself to read exact
    # work-unit counts, so its cost is kept apart from the observe plane's.
    "observe.profile": (
        ("repro.observe.profile", "WorkProfile", ("charge", "record_walk")),
    ),
}

#: Strategy hooks are wrapped on the base class and every subclass that
#: overrides them.
STRATEGY_HOOKS = ("on_lookup", "on_retrieval", "on_update")

#: Operation roots (numbered, timed per call, sampled for span trees).
OPERATION_ROOTS = ("CacheCloud.handle_request", "CacheCloud.handle_update")

#: Upper bound on spans kept for the written trace.
MAX_SPANS = 50_000
#: Span trees are kept for every this-many-th operation.
SAMPLE_EVERY = 100

# Frame slots: start time, time covered by child spans, generation, sampled
# span id, callable index, direct wrapped children, all wrapped descendants.
_T0, _CHILD, _GEN, _SPAN, _INDEX, _KIDS, _DESC = range(7)


class Tracer:
    """Aggregating span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        #: Raw self seconds, calls, and direct wrapped children per callable.
        self.self_s: List[float] = []
        self.calls: List[int] = []
        self.kids: List[int] = []
        #: Wrapped calls made with no wrapped caller (the driver loop's).
        self.root_calls = 0
        #: Raw self seconds of the set-up phase, saved by :meth:`mark`.
        self.setup_self_s: List[float] = []
        self.durations: Dict[str, array] = {
            name: array("d") for name in OPERATION_ROOTS
        }
        #: Sampled spans: [name index, start, end, parent span, operation].
        self.spans: List[List[Any]] = []
        self.operations = 0
        self.sampling = False
        self.active = True
        self.t_mark = 0.0
        self.t_freeze = 0.0
        #: Seconds one wrapper adds inside its own span / to its caller.
        self.c_in = 0.0
        self.c_out = 0.0
        self._gen = 0
        self._stack: List[List[Any]] = []
        self._originals: List[Tuple[Any, str, Any]] = []
        #: ``RebalanceResult.changed`` outcomes seen by the ring wrapper.
        self.rebalances_changed = 0

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Calibrate, then wrap every target callable."""
        self.c_in, self.c_out = calibrate()
        for layer, groups in TARGETS.items():
            for module_name, class_name, attrs in groups:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                for attr in attrs:
                    self._wrap(layer, owner, class_name, attr)
        from repro.strategies.base import CacheStrategy

        # Importing the package registers every strategy subclass.
        importlib.import_module("repro.strategies")
        pending = [CacheStrategy]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for hook in STRATEGY_HOOKS:
                fn = cls.__dict__.get(hook)
                if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                    self._wrap("strategies", cls, cls.__name__, hook)

    def uninstall(self) -> None:
        """Restore every original callable."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer: str, owner: Any, class_name: Optional[str], attr: str) -> None:
        original = owner.__dict__[attr] if class_name else getattr(owner, attr)
        name = f"{class_name}.{attr}" if class_name else attr
        self._originals.append((owner, attr, original))
        setattr(owner, attr, self.wrapper(layer, name, original))

    def wrapper(self, layer: str, name: str, fn: Callable) -> Callable:
        """Register ``fn`` under ``layer`` and return its timing wrapper."""
        index = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.self_s.append(0.0)
        self.calls.append(0)
        self.kids.append(0)
        if name in OPERATION_ROOTS:
            return self._operation_wrapper(index, fn, self.durations[name])
        after = self._count_changed if name == "BeaconRing.rebalance" else None
        return self._span_wrapper(index, fn, after)

    def _count_changed(self, result: Any) -> None:
        if result.changed:
            self.rebalances_changed += 1

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _span_wrapper(
        self, index: int, fn: Callable, after: Optional[Callable[[Any], None]]
    ) -> Callable:
        tracer = self
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0, 0.0, tracer._gen, -1, index, 0, 0]
            if tracer.sampling:
                frame[_SPAN] = len(spans)
                parent = stack[-1][_SPAN] if stack else -1
                spans.append([index, 0.0, 0.0, parent, tracer.operations])
            stack.append(frame)
            frame[_T0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, clock())
            if after is not None:
                after(result)
            return result

        return wrapper

    def _operation_wrapper(self, index: int, fn: Callable, durations: array) -> Callable:
        tracer = self
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.operations += 1
            frame = [0.0, 0.0, tracer._gen, -1, index, 0, 0]
            if tracer.operations % SAMPLE_EVERY == 0 and len(spans) < MAX_SPANS:
                tracer.sampling = True
                frame[_SPAN] = len(spans)
                spans.append([index, 0.0, 0.0, -1, tracer.operations])
            stack.append(frame)
            t0 = frame[_T0] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.sampling = False
                if tracer._close(frame, t1):
                    # Net of what the wrappers underneath added.
                    cost = frame[_DESC] * (tracer.c_in + tracer.c_out)
                    durations.append(t1 - t0 - cost)

        return wrapper

    def _close(self, frame: List[Any], t1: float) -> bool:
        """Pop ``frame`` and charge it; False once the frame was frozen."""
        stack = self._stack
        stack.pop()
        if frame[_GEN] != self._gen:
            return False
        duration = t1 - frame[_T0]
        index = frame[_INDEX]
        self.self_s[index] += duration - frame[_CHILD]
        self.calls[index] += 1
        self.kids[index] += frame[_KIDS]
        if stack:
            parent = stack[-1]
            parent[_CHILD] += duration
            parent[_KIDS] += 1
            parent[_DESC] += frame[_DESC] + 1
        else:
            self.root_calls += 1
        if frame[_SPAN] >= 0:
            span = self.spans[frame[_SPAN]]
            span[1] = frame[_T0]
            span[2] = t1
        return True

    # ------------------------------------------------------------------
    # Segment boundaries
    # ------------------------------------------------------------------
    def mark(self) -> None:
        """Set-up is over: bank its aggregates, restart the open spans."""
        self.setup_self_s = list(self.self_s)
        now = time.perf_counter()
        # Open spans (run_experiment, run_until, ...) straddle the boundary:
        # what they did before it belongs to set-up.
        for frame in self._stack:
            self.setup_self_s[frame[_INDEX]] += now - frame[_T0] - frame[_CHILD]
        count = len(self.names)
        self.self_s[:] = [0.0] * count
        self.calls[:] = [0] * count
        self.kids[:] = [0] * count
        self.root_calls = 0
        for durations in self.durations.values():
            del durations[:]
        del self.spans[:]
        self.operations = 0
        self.rebalances_changed = 0
        self._gen += 1
        self.t_mark = now = time.perf_counter()
        for frame in self._stack:
            frame[_T0] = now
            frame[_CHILD] = 0.0
            frame[_GEN] = self._gen
            frame[_SPAN] = -1
            frame[_KIDS] = frame[_DESC] = 0

    def freeze(self) -> None:
        """Pinned checkpoint: charge the open spans up to now, then stop."""
        now = self.t_freeze = time.perf_counter()
        inner = 0.0
        for frame in reversed(self._stack):
            frame[_CHILD] += inner
            inner = now - frame[_T0]
            self.self_s[frame[_INDEX]] += inner - frame[_CHILD]
            self.kids[frame[_INDEX]] += frame[_KIDS]
        self.active = False
        self.sampling = False
        self._gen += 1

    # ------------------------------------------------------------------
    # Read-out (between mark and freeze, net of the wrappers' own cost)
    # ------------------------------------------------------------------
    @property
    def traced_s(self) -> float:
        """Wall-clock between :meth:`mark` and :meth:`freeze`, wrappers included."""
        return self.t_freeze - self.t_mark

    def _net(self, index: int) -> float:
        cost = self.calls[index] * self.c_in + self.kids[index] * self.c_out
        return max(0.0, self.self_s[index] - cost)

    def _select(self, key: str, value: str) -> List[int]:
        field = self.layers if key == "layer" else self.names
        return [i for i, item in enumerate(field) if item == value]

    def layer_self_s(self, layer: str, setup: bool = False) -> float:
        """Self time of every callable of ``layer`` (raw for the set-up phase)."""
        if setup:
            return sum(self.setup_self_s[i] for i in self._select("layer", layer))
        return sum(self._net(i) for i in self._select("layer", layer))

    def self_of(self, name: str) -> float:
        return sum(self._net(i) for i in self._select("name", name))

    def calls_of(self, name: str) -> int:
        return sum(self.calls[i] for i in self._select("name", name))

    def layer_calls(self, layer: str) -> int:
        return sum(self.calls[i] for i in self._select("layer", layer))

    def shares(self) -> Dict[str, float]:
        """Each layer's share of the segment's time net of wrapper cost.

        ``unattributed`` is what no wrapped layer accounts for: the driver
        loop, RNG draws, the record iterators.
        """
        net = {layer: self.layer_self_s(layer) for layer in sorted(set(self.layers))}
        loose = self.traced_s - sum(self.self_s) - self.root_calls * self.c_out
        net["unattributed"] = max(0.0, loose)
        total = sum(net.values())
        return {layer: seconds / total for layer, seconds in net.items()}

    def percentile_us(self, name: str, q: float) -> float:
        """``q``-quantile (0..1) of one operation root's call durations."""
        values = sorted(self.durations[name])
        if not values:
            return 0.0
        return values[min(len(values) - 1, int(q * len(values)))] * 1e6

    def dump(self) -> Dict[str, Any]:
        """JSON-ready sampled span trees, times relative to the mark."""
        origin = self.t_mark
        return {
            "sample_every": SAMPLE_EVERY,
            "wrapper_cost_s": {"inside_span": self.c_in, "to_caller": self.c_out},
            "names": self.names,
            "layers": self.layers,
            "span_fields": ["name", "start_s", "end_s", "parent", "operation"],
            "spans": [
                [index, start - origin, end - origin, parent, op]
                for index, start, end, parent, op in self.spans[:MAX_SPANS]
            ],
        }


def calibrate(rounds: int = 20_000, repeats: int = 5) -> Tuple[float, float]:
    """Seconds one wrapper adds (inside its own span, to its caller's self time).

    A wrapped no-op is called ``rounds`` times from a wrapped loop and the
    same loop is timed bare; the smallest of ``repeats`` tries is kept. The
    read-out subtracts these per call, as ``profile.Profile.calibrate`` does,
    so a layer that makes many tiny calls is not charged for being watched.
    """

    def leaf() -> None:
        return None

    def loop(callee: Callable[[], None]) -> None:
        for _ in range(rounds):
            callee()

    best_in = best_out = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        loop(leaf)
        bare = time.perf_counter() - start
        probe = Tracer()
        wrapped_leaf = probe.wrapper("calibration", "leaf", leaf)
        probe.wrapper("calibration", "loop", loop)(wrapped_leaf)
        best_in = min(best_in, probe.self_s[0] / rounds)
        best_out = min(best_out, (probe.self_s[1] - bare) / rounds)
    return best_in, max(0.0, best_out)
