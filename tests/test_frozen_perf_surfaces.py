"""What the benchmark program reads of ``src/repro``, checked in tier-1.

``benchmarks/perf/`` changes only with the benchmark itself, and it reaches
into the package in two ways a refactor can break without any other tier-1
test noticing:

* its traced pass wraps every ``trace.TARGETS`` name at class level, read
  as ``Tracer._wrap`` reads it (``owner.__dict__[attr]`` for a class member,
  ``getattr`` for a module function), so each must stay defined on its
  class, not only inherited;
* ``probes.fabric_dispatch("telemetry")`` attaches a registry to a bare
  fabric by assigning ``fabric.telemetry``.
"""

from __future__ import annotations

import importlib

from benchmarks.perf import probes
from benchmarks.perf.trace import TARGETS
from repro.observe.registry import Telemetry


def test_every_traced_name_resolves_as_the_tracer_reads_it():
    missing = []
    for groups in TARGETS.values():
        for module_name, class_name, attrs in groups:
            module = importlib.import_module(module_name)
            for attr in attrs:
                if class_name is None:
                    found = getattr(module, attr, None)
                else:
                    found = getattr(module, class_name).__dict__.get(attr)
                if not callable(found):
                    missing.append(f"{module_name}.{class_name or ''}.{attr}")
    assert not missing, missing


def test_the_telemetry_probe_records_its_attempts(monkeypatch):
    made = []

    class Recorded(Telemetry):
        def __init__(self) -> None:
            super().__init__()
            made.append(self)

    monkeypatch.setattr(probes, "Telemetry", Recorded)
    assert probes.fabric_dispatch("telemetry", rounds=50) > 0
    (telemetry,) = made
    # Per round: a one-hop RPC (two control legs), a document, a control message.
    assert telemetry.counters["fabric.attempts.control"] == 3 * 50
    assert telemetry.counters["fabric.attempts.peer_transfer"] == 50
