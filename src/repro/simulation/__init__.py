"""Discrete-event simulation kernel used by the cache-cloud simulator.

This package provides a small but complete discrete-event simulation (DES)
substrate:

* :class:`~repro.simulation.clock.SimulationClock` — monotonically advancing
  virtual clock.
* :class:`~repro.simulation.events.Event` — a scheduled callback with a
  deterministic total ordering (time, priority, sequence number).
* :class:`~repro.simulation.engine.Simulator` — the event loop: schedule,
  cancel, run-until, periodic processes.
* :class:`~repro.simulation.rng.RandomStreams` — named, independently seeded
  random streams so that experiment components do not perturb each other's
  randomness (a standard requirement for reproducible simulation studies).
* :class:`~repro.simulation.process.PeriodicProcess` — helper that re-arms a
  callback on a fixed period (used for the beacon-ring sub-range
  determination cycles).

The kernel is deliberately synchronous and single-threaded: determinism and
reproducibility matter far more here than wall-clock parallelism, because the
paper's results are statistical properties of a simulated cloud.
"""

from repro.simulation.clock import SimulationClock
from repro.simulation.engine import Simulator
from repro.simulation.events import Event, EventPriority
from repro.simulation.process import PeriodicProcess
from repro.simulation.rng import RandomStreams

__all__ = [
    "Event",
    "EventPriority",
    "PeriodicProcess",
    "RandomStreams",
    "SimulationClock",
    "Simulator",
]
