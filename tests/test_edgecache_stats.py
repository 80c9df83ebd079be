"""Unit tests for rate estimators and cache statistics."""

import gc
import math
import struct
import tracemalloc
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edgecache.stats import AccessFrequencyTracker, CacheStats, RateTable
from repro.edgecache.storage import CacheStorage

#: ``rate(now)`` per decayed event at half-life 10: count · ln 2 / half-life.
PER_EVENT = math.log(2) / 10.0


class TestDecayingRate:
    """One key's decaying rate, as the table keeps it."""

    def test_rejects_bad_half_life(self):
        with pytest.raises(ValueError):
            RateTable(0.0)

    def test_zero_events_zero_rate(self):
        table = RateTable(10.0)
        assert table.rate(1, 100.0) == 0.0
        assert list(table.state()) == []  # reading an unseen key takes no slot

    def test_count_halves_per_half_life(self):
        table = RateTable(half_life=10.0)
        table.observe(1, 0.0)
        assert table.rate(1, 10.0) == pytest.approx(0.5 * PER_EVENT)
        table.observe(1, 10.0)  # count back to 1.5
        assert table.rate(1, 20.0) == pytest.approx(0.75 * PER_EVENT)

    def test_rate_converges_to_poisson_intensity(self):
        # 5 events per unit, observed over many half-lives.
        table = RateTable(half_life=20.0)
        t = 0.0
        while t < 400.0:
            for _ in range(5):
                table.observe(1, t)
            t += 1.0
        assert table.rate(1, 400.0) == pytest.approx(5.0, rel=0.05)

    def test_events_at_one_instant_add_up(self):
        table = RateTable(half_life=10.0)
        for _ in range(3):
            table.observe(1, 0.0)
        assert table.rate(1, 0.0) == pytest.approx(3.0 * PER_EVENT)

    def test_time_does_not_go_backwards(self):
        table = RateTable(half_life=10.0)
        table.observe(1, 10.0)
        # Querying an earlier time returns the current (later) state rather
        # than raising: estimators are monotone in observation time.
        assert table.rate(1, 5.0) == pytest.approx(1.0 * PER_EVENT)

    def test_keys_decay_independently(self):
        table = RateTable(half_life=10.0)
        table.observe(1, 0.0)
        table.observe(2, 10.0)
        assert table.rate(1, 10.0) == pytest.approx(0.5 * PER_EVENT)
        assert table.rate(2, 10.0) == pytest.approx(1.0 * PER_EVENT)
        assert [key for key, _, _ in table.state()] == [1, 2]


class TestAccessFrequencyTracker:
    def test_unseen_doc_rate_zero(self):
        tracker = AccessFrequencyTracker()
        assert tracker.rate_of(1, 0.0) == 0.0

    def test_hot_doc_rate_above_mean(self):
        tracker = AccessFrequencyTracker(half_life=30.0)
        for t in range(100):
            tracker.observe(1, float(t))  # hot
            if t % 10 == 0:
                tracker.observe(2, float(t))  # cold
        now = 100.0
        assert tracker.rate_of(1, now) > tracker.mean_rate(now)
        assert tracker.rate_of(2, now) < tracker.mean_rate(now)

    def test_mean_rate_of_empty_tracker(self):
        assert AccessFrequencyTracker().mean_rate(0.0) == 0.0

    def test_mean_rate_is_aggregate_over_tracked_docs(self):
        tracker = AccessFrequencyTracker(half_life=10.0)
        tracker.observe(1, 0.0)
        tracker.observe(2, 0.0)
        total = tracker.rate_of(1, 0.0) + tracker.rate_of(2, 0.0)
        assert tracker.mean_rate(0.0) == pytest.approx(total / 2)


# ----------------------------------------------------------------------
# The table against the by-the-book estimator, bit for bit
# ----------------------------------------------------------------------
def reference_replay(
    half_life: float, script: List[Tuple[str, int, float]]
) -> Tuple[List[float], Dict[int, List[float]], List[float]]:
    """One ``[count, last]`` per key and one for the total, decayed with the
    arithmetic of the estimator object each key used to get; returns every
    read, the per-key state and the total's state."""
    per_key: Dict[int, List[float]] = {}
    total = [0.0, 0.0]
    reads: List[float] = []
    for op, key, now in script:
        if op == "observe":
            for state in (per_key.setdefault(key, [0.0, 0.0]), total):
                if now > state[1]:
                    state[0] = state[0] * 2.0 ** (-(now - state[1]) / half_life)
                    state[1] = now
                state[0] += 1.0
            continue
        if op == "mean":
            state = total if per_key else None
        else:
            state = per_key.get(key)
        if state is None:
            reads.append(0.0)
            continue
        if now > state[1]:
            state[0] *= 2.0 ** (-(now - state[1]) / half_life)
            state[1] = now
        rate = state[0] * math.log(2.0) / half_life
        reads.append(rate / len(per_key) if op == "mean" else rate)
    return reads, per_key, total


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


STEPS = st.one_of(
    st.just(0.0),  # equal times: no decay step
    st.floats(min_value=1e-9, max_value=500.0),
    st.sampled_from([5e-324, 1e-300, 0.1, 60.0]),
    st.floats(min_value=-5.0, max_value=-1e-9),  # a read of the past
)
SCRIPTS = st.lists(
    st.tuples(
        st.sampled_from(["observe", "observe", "rate", "mean"]),
        st.integers(0, 12),
        STEPS,
    ),
    max_size=80,
)


@given(
    half_life=st.one_of(
        st.sampled_from([60.0, 1.0]), st.floats(min_value=1e-3, max_value=1e4)
    ),
    start=st.sampled_from([0.0, 0.0, 3.5]),
    script=SCRIPTS,
)
@settings(max_examples=300, deadline=None)
def test_table_equals_the_per_key_estimator_bit_for_bit(half_life, start, script):
    timed, now = [], start
    for op, key, step in script:
        now += step
        timed.append((op, key, now))
    reads, per_key, total = reference_replay(half_life, timed)

    tracker = AccessFrequencyTracker(half_life)
    ours: List[float] = []
    for op, key, now in timed:
        if op == "observe":
            tracker.observe(key, now)
        elif op == "rate":
            ours.append(tracker.rate_of(key, now))
        else:
            ours.append(tracker.mean_rate(now))
    assert [bits(r) for r in ours] == [bits(r) for r in reads]
    assert sorted((k, bits(c), bits(t)) for k, c, t in tracker.state()) == sorted(
        (k, bits(c), bits(t)) for k, (c, t) in per_key.items()
    )
    assert tuple(map(bits, tracker.total_state())) == tuple(map(bits, total))


# ----------------------------------------------------------------------
# What a key costs
# ----------------------------------------------------------------------
class TestFootprint:
    """A key costs an int-to-int dict entry and two doubles: no object the
    collector tracks, and no boxed float."""

    KEYS = 50_000

    def keys(self) -> List[int]:
        # Doc ids past the small-int cache, built before anything is counted.
        return list(range(10_000, 10_000 + self.KEYS))

    def test_tracked_objects_do_not_grow_per_key(self):
        keys = self.keys()
        tracker = AccessFrequencyTracker()
        gc.collect()
        before = len(gc.get_objects())
        for index, key in enumerate(keys):
            tracker.observe(key, index * 1e-3)
        gc.collect()
        grown = len(gc.get_objects()) - before
        assert grown < 10, f"{grown} more tracked objects after {self.KEYS} keys"
        assert sum(1 for _ in tracker.state()) == self.KEYS

    def test_a_store_tracks_no_object_per_copy(self):
        keys = self.keys()
        storage = CacheStorage(documents=keys[-1] + 1)
        gc.collect()
        before = len(gc.get_objects())
        for index, key in enumerate(keys):
            storage.admit(key, 100, 70_000 + index, 0.0)
        gc.collect()
        admitted = len(gc.get_objects()) - before
        # A copy is a version slot and two dict entries: no tracked object...
        assert admitted < 10, f"{admitted} tracked objects for {self.KEYS} copies"
        for index, key in enumerate(keys):
            storage.refresh_version(key, 90_000 + index)
        gc.collect()
        # ...and rewriting every version allocates nothing tracked.
        assert len(gc.get_objects()) - before - admitted < 10
        assert storage.version_of(keys[-1]) == 90_000 + self.KEYS - 1

    def test_net_bytes_per_key(self):
        """No more than the key-to-slot index itself plus the two column
        cells (16 B, with the array's growth slack). The estimator object
        per key this replaced cost ~60 B more."""
        keys = self.keys()
        tracemalloc.start()
        try:
            tracker = AccessFrequencyTracker()
            start = tracemalloc.get_traced_memory()[0]
            for index, key in enumerate(keys):
                tracker.observe(key, index * 1e-3)
            table_bytes = tracemalloc.get_traced_memory()[0] - start
            start = tracemalloc.get_traced_memory()[0]
            index_only = {key: slot for slot, key in enumerate(keys)}
            index_bytes = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(index_only) == sum(1 for _ in tracker.state())
        assert (table_bytes - index_bytes) / self.KEYS <= 18.0, (
            f"{table_bytes / self.KEYS:.1f} B per key, of which the index is "
            f"{index_bytes / self.KEYS:.1f}"
        )


class TestCacheStats:
    def test_rates_with_no_requests(self):
        stats = CacheStats()
        assert stats.local_hit_rate == 0.0
        assert stats.cloud_hit_rate == 0.0
        assert stats.mean_latency_ms == 0.0

    def test_hit_rates(self):
        stats = CacheStats(requests=10, local_hits=4, cloud_hits=3)
        assert stats.local_hit_rate == pytest.approx(0.4)
        assert stats.cloud_hit_rate == pytest.approx(0.7)

    def test_latency_accumulation(self):
        stats = CacheStats(requests=2)
        stats.record_latency(10.0)
        stats.record_latency(30.0)
        assert stats.mean_latency_ms == 20.0

    def test_latency_rejects_negative(self):
        with pytest.raises(ValueError):
            CacheStats().record_latency(-1.0)

    def test_merge(self):
        a = CacheStats(requests=5, local_hits=2, stores=1)
        b = CacheStats(requests=3, local_hits=1, origin_fetches=2)
        a.merge(b)
        assert a.requests == 8
        assert a.local_hits == 3
        assert a.origin_fetches == 2
        assert a.stores == 1
