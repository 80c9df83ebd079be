"""Unit + property tests for trace records and stream merging."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.trace import (
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
    """Slotted records keep every behaviour the unslotted ones had."""

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
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.time = 9.0

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
        assert dataclasses.replace(a, doc_id=6) == RequestRecord(1.0, 3, 6)
        assert dataclasses.astuple(UpdateRecord(2.0, 5)) == (2.0, 5)

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
