"""Unit + property tests for trace records and stream merging."""

import copy
import pickle
import tracemalloc
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.rng import derive_seed
from repro.workload.sydney import SydneyConfig, SydneyTraceGenerator
from repro.workload.trace import (
    RecordColumns,
    RequestRecord,
    Trace,
    UpdateRecord,
    merge_streams,
)


class TestRecords:
    def test_request_record_validation(self):
        with pytest.raises(ValueError):
            RequestRecord(time=-1.0, cache_id=0, doc_id=0)
        with pytest.raises(ValueError):
            RequestRecord(time=0.0, cache_id=-1, doc_id=0)
        with pytest.raises(ValueError):
            RequestRecord(time=0.0, cache_id=0, doc_id=-1)

    def test_update_record_validation(self):
        with pytest.raises(ValueError):
            UpdateRecord(time=-0.5, doc_id=0)

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_time_rejected(self, time):
        """``time < 0`` is false for NaN; a NaN timestamp also breaks every sort."""
        with pytest.raises(ValueError, match="finite"):
            RequestRecord(time, 0, 0)
        with pytest.raises(ValueError, match="finite"):
            UpdateRecord(time, 0)

    def test_negative_zero_is_a_valid_time(self):
        assert RequestRecord(-0.0, 0, 0) == RequestRecord(0.0, 0, 0)
        assert UpdateRecord(-0.0, 0).time == 0.0

    def test_records_sort_by_time(self):
        records = [RequestRecord(2.0, 0, 0), RequestRecord(1.0, 1, 1)]
        assert sorted(records)[0].time == 1.0


class TestRecordLayout:
    """Tuple-backed records keep every behaviour the dataclass ones had.

    Immutability, order, hash, pickle and deepcopy hold as they did; what
    changed is that assignment raises ``AttributeError`` (the base class of
    ``FrozenInstanceError``), ``_replace`` / ``tuple()`` stand for
    ``dataclasses.replace`` / ``astuple``, and a record equals the plain
    tuple of its fields.
    """

    RECORDS = [
        RequestRecord(1.5, 2, 7),
        RequestRecord(0.0, 0, 0),
        UpdateRecord(1.5, 7),
        UpdateRecord(3, 1),
    ]

    @pytest.mark.parametrize("record", RECORDS, ids=repr)
    def test_no_instance_dict(self, record):
        assert not hasattr(record, "__dict__")
        assert "__slots__" in vars(type(record))

    @pytest.mark.parametrize("record", RECORDS, ids=repr)
    def test_frozen(self, record):
        before = record.time
        with pytest.raises(AttributeError):
            record.time = 9.0
        assert record.time == before

    @pytest.mark.parametrize("record", RECORDS, ids=repr)
    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, record, protocol):
        # ``--jobs`` workers ship whole traces across process boundaries.
        clone = pickle.loads(pickle.dumps(record, protocol))
        assert clone == record and type(clone) is type(record)
        assert hash(clone) == hash(record)
        assert copy.deepcopy(record) == record

    def test_order_hash_and_equality(self):
        a, b = RequestRecord(1.0, 3, 4), RequestRecord(1.0, 3, 4)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != RequestRecord(1.0, 3, 5)
        assert RequestRecord(1.0, 0, 9) < RequestRecord(1.0, 1, 0) < RequestRecord(2.0, 0, 0)
        assert UpdateRecord(1.0, 2) < UpdateRecord(1.0, 3) <= UpdateRecord(1.0, 3)
        assert UpdateRecord(1.0, 2) != RequestRecord(1.0, 0, 2)
        assert a._replace(doc_id=6) == RequestRecord(1.0, 3, 6)
        assert tuple(UpdateRecord(2.0, 5)) == (2.0, 5)
        # A record is the tuple of its fields, and equals it.
        assert a == (1.0, 3, 4) and hash(a) == hash((1.0, 3, 4))

    def test_negative_fields_still_rejected(self):
        for bad in ((-0.1, 0, 0), (0.0, -1, 0), (0.0, 0, -1)):
            with pytest.raises(ValueError):
                RequestRecord(*bad)
        for bad in ((-0.1, 0), (0.0, -1)):
            with pytest.raises(ValueError):
                UpdateRecord(*bad)

    def test_a_trace_round_trips(self):
        trace = Trace(
            requests=[RequestRecord(2.0, 0, 1), RequestRecord(1.0, 1, 2)],
            updates=[UpdateRecord(1.5, 2)],
        )
        clone = pickle.loads(pickle.dumps(trace))
        assert clone.requests == trace.requests and clone.updates == trace.updates
        assert list(clone.merged()) == list(trace.merged())


BAD_TIMES = [float("nan"), float("inf"), -1.0]

#: The ``figure-sim`` trace shape of the repository benchmark.
SHAPE = dict(
    num_documents=5_000,
    num_caches=20,
    peak_request_rate_per_cache=120.0,
    base_update_rate=195.0,
    seed=derive_seed(11, "trace"),
)


class TestEveryConstructionPathChecks:
    """``_make``, ``_replace`` and a row-built trace run the constructor's checks."""

    @pytest.mark.parametrize("bad", BAD_TIMES)
    def test_make_rejects_a_bad_time(self, bad):
        with pytest.raises(ValueError, match="finite"):
            RequestRecord._make([bad, 0, 0])
        with pytest.raises(ValueError, match="finite"):
            UpdateRecord._make([bad, 0])

    def test_make_rejects_a_negative_id(self):
        for row in ((0.0, -1, 0), (0.0, 0, -1)):
            with pytest.raises(ValueError, match="must be >= 0"):
                RequestRecord._make(row)
        with pytest.raises(ValueError, match="doc_id"):
            UpdateRecord._make((0.0, -1))

    @pytest.mark.parametrize("bad", BAD_TIMES)
    def test_replace_rejects_a_bad_time(self, bad):
        with pytest.raises(ValueError, match="finite"):
            RequestRecord(1.0, 0, 0)._replace(time=bad)
        with pytest.raises(ValueError, match="finite"):
            UpdateRecord(1.0, 0)._replace(time=bad)

    def test_replace_rejects_a_negative_id(self):
        for field in ("cache_id", "doc_id"):
            with pytest.raises(ValueError, match=field):
                RequestRecord(1.0, 0, 0)._replace(**{field: -1})
        with pytest.raises(ValueError, match="doc_id"):
            UpdateRecord(1.0, 0)._replace(doc_id=-1)

    @pytest.mark.parametrize("bad", BAD_TIMES)
    @pytest.mark.parametrize("at", [0, 1, 2], ids=["first", "middle", "last"])
    def test_row_built_trace_rejects_a_bad_time(self, bad, at):
        requests = [(0.5, 0, 0), (1.0, 0, 1), (2.0, 1, 2)]
        updates = [(0.5, 0), (1.0, 1), (2.0, 2)]
        requests[at] = (bad, 0, 0)
        updates[at] = (bad, 0)
        with pytest.raises(ValueError, match="finite"):
            Trace(requests=requests)
        with pytest.raises(ValueError, match="finite"):
            Trace(updates=updates)

    def test_row_built_trace_rejects_a_negative_id(self):
        for row in ((0.0, -1, 0), (0.0, 0, -1)):
            with pytest.raises(ValueError, match="must be >= 0"):
                Trace(requests=[(0.0, 0, 0), row])
        with pytest.raises(ValueError, match="doc_id"):
            Trace(updates=[(0.0, 0), (1.0, -1)])

    def test_unpickling_checks(self):
        """Unpickling and copying rebuild a record through ``__new__``."""
        rebuild, (cls, *fields) = RequestRecord(1.0, 2, 3).__reduce_ex__(2)[:2]
        assert rebuild(cls, *fields) == RequestRecord(1.0, 2, 3)
        with pytest.raises(ValueError, match="finite"):
            rebuild(cls, float("nan"), *fields[1:])


#: Few distinct times, so rows arrive out of order and tied at one timestamp.
request_rows = st.tuples(
    st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0]), st.integers(0, 3), st.integers(0, 3)
)
update_rows = st.tuples(st.sampled_from([0.0, 1.0, 3.0]), st.integers(0, 5))


class TestRowBuiltTrace:
    @given(
        requests=st.lists(request_rows, max_size=30),
        updates=st.lists(update_rows, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_sorted_records(self, requests, updates):
        """Out of order or tied at one timestamp, a trace is ``sorted()`` of its records."""
        trace = Trace(requests=requests, updates=updates)
        want_requests = sorted(RequestRecord(*row) for row in requests)
        want_updates = sorted(UpdateRecord(*row) for row in updates)
        assert trace.requests == want_requests and trace.updates == want_updates
        assert list(trace.requests) == want_requests
        assert [type(record) for record in trace.updates] == [UpdateRecord] * len(updates)

    @given(times=st.lists(st.floats(0.0, 1e6), unique=True, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_increasing_rows_keep_their_order(self, times):
        rows = [(t, i % 4, i) for i, t in enumerate(sorted(times))]
        assert list(Trace(requests=rows).requests) == [RequestRecord(*row) for row in rows]

    def test_a_view_reads_like_a_list(self):
        records = [RequestRecord(1.0, 0, 5), RequestRecord(2.0, 1, 6), RequestRecord(3.0, 0, 7)]
        view = Trace(requests=records).requests
        assert isinstance(view, RecordColumns) and len(view) == 3
        assert view[0] == records[0] and view[-1] == records[-1]
        assert type(view[1]) is RequestRecord
        assert view[1:] == records[1:] and isinstance(view[1:], RecordColumns)
        assert list(reversed(view)) == records[::-1] and records[1] in view
        assert view == records and records == view and view != records[:2]
        assert view != Trace(updates=[(1.0, 5)]).updates
        with pytest.raises(IndexError):
            view[3]
        with pytest.raises(TypeError):
            view[0] = records[0]

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_a_generated_trace_round_trips_through_pickle(self, protocol):
        # ``--jobs`` workers ship traces across process boundaries.
        trace = SydneyTraceGenerator(SydneyConfig(**SHAPE, duration_minutes=3.0)).build_trace()
        clone = pickle.loads(pickle.dumps(trace, protocol))
        assert type(clone.requests) is RecordColumns and len(clone) == len(trace) > 1_000
        assert clone.requests == trace.requests and clone.updates == trace.updates
        assert list(clone.merged()) == list(trace.merged())


class TestFootprint:
    """A built trace is three columns and no record objects."""

    #: ~20k requests and ~84k updates. Under tracemalloc each generated
    #: request costs ~30 µs of hooked float temporaries (an update ~8 µs), so
    #: the request share is kept to what makes the traced build ~1.5 s; the
    #: frozen-dataclass records this replaced cost ~90 B each on this shape.
    UPDATE_HEAVY = dict(
        SHAPE,
        peak_request_rate_per_cache=14.0,
        base_update_rate=1_200.0,
        duration_minutes=70.0,
        diurnal_period_minutes=70.0,
        diurnal_floor=1.0,
    )

    def generator(self):
        return SydneyTraceGenerator(SydneyConfig(**self.UPDATE_HEAVY))

    def test_a_built_trace_costs_at_most_32_bytes_a_record(self):
        """~26 B a request (8 B time, two 8 B list slots plus growth), ~18 B an update."""
        generator = self.generator()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            trace = generator.build_trace()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(trace) >= 100_000 and len(trace.requests) >= 15_000
        assert peak / len(trace) <= 32.0, f"{peak / len(trace):.1f} B per record"

    def test_the_build_takes_at_most_two_seconds(self):
        generator = self.generator()
        start = perf_counter()
        trace = generator.build_trace()
        assert len(trace) >= 100_000 and perf_counter() - start <= 2.0


class TestTrace:
    def test_sorts_inputs(self):
        trace = Trace(
            requests=[RequestRecord(5.0, 0, 0), RequestRecord(1.0, 0, 1)],
            updates=[UpdateRecord(3.0, 2), UpdateRecord(0.5, 3)],
        )
        assert [r.time for r in trace.requests] == [1.0, 5.0]
        assert [u.time for u in trace.updates] == [0.5, 3.0]

    def test_duration(self):
        trace = Trace(
            requests=[RequestRecord(5.0, 0, 0)], updates=[UpdateRecord(9.0, 1)]
        )
        assert trace.duration == 9.0

    def test_empty_trace_duration_zero(self):
        assert Trace().duration == 0.0

    def test_len_counts_both_kinds(self):
        trace = Trace(
            requests=[RequestRecord(1.0, 0, 0)],
            updates=[UpdateRecord(2.0, 0), UpdateRecord(3.0, 1)],
        )
        assert len(trace) == 3

    def test_histograms(self):
        trace = Trace(
            requests=[RequestRecord(1.0, 0, 7), RequestRecord(2.0, 1, 7)],
            updates=[UpdateRecord(1.5, 7)],
        )
        assert trace.request_counts_by_doc() == {7: 2}
        assert trace.update_counts_by_doc() == {7: 1}


class TestMergeStreams:
    def test_global_time_order(self):
        requests = [RequestRecord(1.0, 0, 0), RequestRecord(3.0, 0, 0)]
        updates = [UpdateRecord(2.0, 0)]
        times = [r.time for r in merge_streams(requests, updates)]
        assert times == [1.0, 2.0, 3.0]

    def test_update_wins_time_tie(self):
        requests = [RequestRecord(1.0, 0, 0)]
        updates = [UpdateRecord(1.0, 0)]
        merged = list(merge_streams(requests, updates))
        assert isinstance(merged[0], UpdateRecord)

    def test_lazy_merge_accepts_generators(self):
        def reqs():
            yield RequestRecord(1.0, 0, 0)

        def upds():
            yield UpdateRecord(0.5, 0)

        merged = merge_streams(reqs(), upds())
        assert [type(r).__name__ for r in merged] == [
            "UpdateRecord",
            "RequestRecord",
        ]

    @given(
        req_times=st.lists(
            st.floats(min_value=0, max_value=100, allow_nan=False), max_size=40
        ),
        upd_times=st.lists(
            st.floats(min_value=0, max_value=100, allow_nan=False), max_size=40
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_is_sorted_and_complete(self, req_times, upd_times):
        requests = sorted(RequestRecord(t, 0, 0) for t in req_times)
        updates = sorted(UpdateRecord(t, 0) for t in upd_times)
        merged = list(merge_streams(requests, updates))
        assert len(merged) == len(requests) + len(updates)
        times = [record.time for record in merged]
        assert times == sorted(times)
