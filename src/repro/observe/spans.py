"""Request-scoped trace spans over simulated time.

A :class:`Span` is one timed piece of protocol work — a whole
``handle_request``, a beacon lookup RPC, one update fan-out leg — carrying
sim-time start/end plus free-form attributes (traffic category, bytes,
attempts, outcome). Spans form trees: the :class:`SpanRecorder` keeps an
open-span stack, so a span begun while another is open becomes its child,
and a full request reconstructs as *root → beacon lookup → peer fetch →
placement decision* without any explicit context passing.

Design constraints (see DESIGN.md §8):

* **Deterministic** — spans carry only sim-time and protocol-derived
  attributes; ids are a begin-order counter. Two same-seed runs produce
  identical span lists.
* **Bounded** — at most ``max_spans`` spans are retained; later spans are
  counted in :attr:`SpanRecorder.dropped`. Because retention is monotone
  (once full, always full) a retained span's parent is always retained
  too, and tree reconstruction never dangles. While a retained span is
  still open its dropped descendants keep the stack bookkeeping (``begin``
  returns a reusable per-depth placeholder), so they still widen its end.
  Once the recorder is full *and the stack is empty* it is
  :attr:`~SpanRecorder.saturated`: no later span can be retained or be the
  child of a retained one, so a caller may skip the begin/end pair and
  only count the span in :attr:`~SpanRecorder.begun` — as
  ``Telemetry.begin_span`` (returning ``None``) and ``RoleWatch`` do.
* **Synchronous** — the protocol plane is single-threaded simulation code,
  so a plain stack models nesting exactly; :meth:`SpanRecorder.end` insists
  on properly paired begin/end calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Span", "SpanRecorder"]

_DROPPED_ID = -1  # ``span_id`` of the placeholders handed out past the cap
_NEVER = float("-inf")  # "no child has ended yet" in the child-end stack


@dataclass(slots=True)
class Span:
    """One timed unit of protocol work, linked to its parent by id (slotted:
    a retained span is one memory block, not an object and its ``__dict__``)."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    #: Sim-time end; ``None`` while the span is still open. On close the
    #: end is widened to cover every child, so parents always contain
    #: their children even when the closing code only knows its own leg.
    end: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in simulated minutes (0.0 while open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start


class SpanRecorder:
    """Begin/end span sink with stack-derived parentage.

    Parameters
    ----------
    max_spans:
        Retention cap. Spans begun past the cap are dropped (counted in
        :attr:`dropped`); until the stack next empties they still push/pop
        it, so the retained spans still open are widened by them.

    One counter, :attr:`begun`, is written per span; ``begun == cleared +
    len(spans) + dropped`` holds by construction, where ``cleared`` is what
    had been begun when :meth:`clear` was last called (ids keep running
    across a clear, so an id is never reused).
    """

    def __init__(self, max_spans: int = 10_000) -> None:
        if max_spans <= 0:
            raise ValueError(f"max_spans must be positive, got {max_spans}")
        self.max_spans = max_spans
        self.spans: List[Span] = []
        #: Spans begun in this recorder's life, retained or dropped; also
        #: the next span id.
        self.begun = 0
        #: Full with nothing open: a later span can only be a counted drop
        #: (``begun += 1``), with or without the begin/end bookkeeping.
        self.saturated = False
        self._cleared = 0  # ``begun`` when ``clear`` was last called
        self._stack: List[Span] = []
        self._frame_child_end: List[float] = []
        #: Handles for dropped spans, one per stack depth (nested drops
        #: stay distinguishable to ``end``/``unwind``).
        self._placeholders: List[Span] = []

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    @property
    def dropped(self) -> int:
        """Spans begun since the last :meth:`clear` that were not retained."""
        return self.begun - self._cleared - len(self.spans)

    def begin(self, name: str, start: float, **attrs: object) -> Span:
        """Open a span; the innermost open span (if any) becomes its parent."""
        return self.open(name, start, attrs)

    def open(self, name: str, start: float, attrs: Dict[str, object]) -> Span:
        """:meth:`begin` for delegating callers: the span keeps ``attrs``."""
        stack = self._stack
        if len(self.spans) < self.max_spans:
            parent_id = stack[-1].span_id if stack else None
            span = Span(self.begun, parent_id, name, float(start), None, attrs)
            self.spans.append(span)
        else:
            placeholders = self._placeholders
            while len(placeholders) <= len(stack):
                placeholders.append(Span(_DROPPED_ID, None, "<dropped>", 0.0))
            span = placeholders[len(stack)]
        self.begun += 1
        stack.append(span)
        self._frame_child_end.append(_NEVER)
        return span

    def end(self, span: Span, end: float, **attrs: object) -> None:
        """Close the innermost span; must be the one passed in.

        The recorded end is ``max(end, latest child end)`` so a parent that
        only knows its own leg latency still covers its children (dropped
        ones included).
        """
        self.close(span, end, attrs)

    def close(self, span: Span, end: float, attrs: Dict[str, object]) -> None:
        """:meth:`end` with the closing attributes as one dict."""
        stack = self._stack
        if not stack or stack[-1] is not span:
            open_name = stack[-1].name if stack else "<none>"
            raise RuntimeError(
                f"span end out of order: closing {span.name!r} "
                f"but innermost open span is {open_name!r}"
            )
        stack.pop()
        frames = self._frame_child_end
        child_end = frames.pop()
        end = float(end)
        if child_end > end:
            end = child_end
        if span.span_id != _DROPPED_ID:
            span.end = end
            if attrs:
                span.attrs.update(attrs)
        if frames:
            if end > frames[-1]:
                frames[-1] = end
        elif len(self.spans) >= self.max_spans:
            self.saturated = True

    def unwind(self, span: Span, end: float) -> None:
        """Close every open span up to and including ``span`` (error paths).

        Each unwound span is marked ``aborted`` so the exported tree shows
        where the exception cut the request short.
        """
        while self._stack:
            top = self._stack[-1]
            if top.span_id != _DROPPED_ID:
                top.attrs.setdefault("aborted", True)
            self.close(top, end, {})
            if top is span:
                return
        raise RuntimeError(f"span {span.name!r} is not on the stack")

    def clear(self) -> None:
        """Drop retained spans and reset the stack (tests / reuse)."""
        self.spans.clear()
        self._stack.clear()
        self._frame_child_end.clear()
        self._cleared = self.begun
        self.saturated = False

    def __repr__(self) -> str:
        return (
            f"SpanRecorder(retained={len(self.spans)}, dropped={self.dropped}, "
            f"open={len(self._stack)})"
        )
