"""One seed-exact counter of the work an operation does under ``src/repro``.

Wall-clock on a shared host moves by tens of percent between two runs of
the same commit; what the interpreter executes does not move at all. A
:class:`HotPathCounter` brackets a window of operations and records, for
code under ``src/repro`` only:

* **frames** — ``call`` events per code object (``sys.settrace``'s global
  hook; a generator's resume is a call too);
* **opcodes** — with ``opcodes=True``, every bytecode instruction those
  frames execute (``f_trace_opcodes``). Only frames entered inside the
  window are seen: a loop that was already running when it opened (a
  simulator's event loop) counts the calls it makes, not its own
  instructions;
* **blocks** — with ``blocks=True``, the ``tracemalloc`` memory blocks
  allocated inside the window by a line under ``src/repro`` and still
  alive when it closes.

Opcodes do not see C-level work (a dict resize, an array copy), which is
what the block count is beside them for. Opcode counts are per CPython
version: the same code executes different instructions on 3.10, 3.11 and
3.12, so a ceiling on them leaves room for the version that runs it.
``test_hot_path_budget.py`` reads its frame ceilings and its opcode
ceilings off this one counter.
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from collections import Counter
from types import FrameType
from typing import Any, Callable, Optional

import repro

SRC_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


class HotPathCounter:
    """Frames (always), opcodes and live ``tracemalloc`` blocks (on
    request) executed under ``src/repro`` between :meth:`start` and
    :meth:`stop`."""

    def __init__(self, opcodes: bool = False, blocks: bool = False) -> None:
        self.calls: Counter = Counter()
        self.opcodes = 0
        self.blocks = 0
        self._count_opcodes = opcodes
        self._count_blocks = blocks
        self._previous: Optional[Callable[..., Any]] = None
        self._started_tracemalloc = False

    # -- the hooks ----------------------------------------------------------
    def _local(self, frame: FrameType, event: str, arg: object):
        if event == "opcode":
            self.opcodes += 1
        return self._local

    def _global(self, frame: FrameType, event: str, arg: object):
        code = frame.f_code
        if not code.co_filename.startswith(SRC_ROOT):
            return None
        self.calls[code] += 1
        if not self._count_opcodes:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self._local

    # -- the window ---------------------------------------------------------
    def start(self) -> None:
        """Open the window."""
        if self._count_blocks and not tracemalloc.is_tracing():
            tracemalloc.start(1)
            self._started_tracemalloc = True
        self._previous = sys.gettrace()
        sys.settrace(self._global)

    def stop(self) -> None:
        """Close the window."""
        sys.settrace(self._previous)
        if self._count_blocks:
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, SRC_ROOT + "*")]
            )
            self.blocks = sum(stat.count for stat in snapshot.statistics("filename"))
            if self._started_tracemalloc:
                tracemalloc.stop()
                self._started_tracemalloc = False

    def __enter__(self) -> "HotPathCounter":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- read-outs ----------------------------------------------------------
    @property
    def frames(self) -> int:
        return sum(self.calls.values())

    def of(self, function: Callable[..., Any]) -> int:
        """``call`` events of ``function`` in the window."""
        return self.calls[function.__code__]

    def top(self, count: int = 12) -> str:
        """The most-called functions, for a failure message."""
        return ", ".join(
            f"{code.co_name}={n}" for code, n in self.calls.most_common(count)
        )
