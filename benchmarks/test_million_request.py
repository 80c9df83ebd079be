"""The one-million-request streaming replays, kept out of tier-1.

Each replays a million offered requests (about a minute and ten seconds on
one core) through the same body tier-1 runs at a tenth of the size:

* a flight-recorder-attached cloud fed straight from the generator — the
  recorder's state stays O(window) (tracemalloc peak over the middle
  100 000 requests), its 20 windows are non-degenerate, and holders probed
  per lookup do not grow from the first quarter to the last;
* the bare merged record stream — drained in time order with its traced
  peak under the same budget, so no trace is ever materialized.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_million_request.py``.
"""

from __future__ import annotations

import pytest

from tests.test_observe_flight import replay_streaming_flight
from tests.test_workload_streaming import replay_out_of_core


@pytest.mark.slow
class TestMillionRequestFlight:
    def test_streaming_replay_bounded_and_series_non_degenerate(self, tmp_path):
        replay_streaming_flight(tmp_path, duration=500.0)


@pytest.mark.slow
class TestStreamingMemoryGuard:
    def test_million_request_replay_is_out_of_core(self):
        replay_out_of_core(duration=100.0)
