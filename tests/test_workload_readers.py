"""Unit + property tests for trace file I/O."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.readers import (
    TraceFormatError,
    read_trace,
    write_trace,
)
from repro.workload.trace import RequestRecord, Trace, UpdateRecord


def sample_trace():
    return Trace(
        requests=[RequestRecord(1.25, 2, 7), RequestRecord(0.5, 0, 3)],
        updates=[UpdateRecord(1.0, 7)],
    )


class TestWriteRead:
    def test_round_trip_via_string(self):
        trace = sample_trace()
        buf = io.StringIO()
        write_trace(trace, buf)
        restored = read_trace(io.StringIO(buf.getvalue()))
        assert restored.requests == trace.requests
        assert restored.updates == trace.updates

    def test_round_trip_via_file(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.txt"
        count = write_trace(trace, path)
        assert count == 3
        restored = read_trace(path)
        assert restored.requests == trace.requests
        assert restored.updates == trace.updates

    def test_output_is_time_ordered(self):
        buf = io.StringIO()
        write_trace(sample_trace(), buf)
        times = [float(line.split()[1]) for line in buf.getvalue().splitlines()]
        assert times == sorted(times)

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\nR 1.0 0 5\n# another\nU 2.0 5\n"
        trace = read_trace(io.StringIO(text))
        assert len(trace.requests) == 1
        assert len(trace.updates) == 1


class TestErrors:
    def test_unknown_kind(self):
        with pytest.raises(TraceFormatError):
            read_trace(io.StringIO("X 1.0 2 3\n"))

    def test_wrong_field_count_request(self):
        with pytest.raises(TraceFormatError):
            read_trace(io.StringIO("R 1.0 2\n"))

    def test_wrong_field_count_update(self):
        with pytest.raises(TraceFormatError):
            read_trace(io.StringIO("U 1.0 2 3\n"))

    def test_unparsable_number(self):
        with pytest.raises(TraceFormatError):
            read_trace(io.StringIO("R abc 0 0\n"))

    def test_error_mentions_line_number(self):
        with pytest.raises(TraceFormatError, match="line 2"):
            read_trace(io.StringIO("R 1.0 0 0\nBOGUS\n"))

    @pytest.mark.parametrize("line", ["R nan 1 2", "R inf 1 2", "U inf 4", "U -inf 4", "U NaN 4"])
    def test_non_finite_time_names_its_line(self, line):
        """Such a trace used to load: NaN broke the sort, ``duration`` read inf."""
        with pytest.raises(TraceFormatError, match="line 2.*finite"):
            read_trace(io.StringIO(f"R 1.0 0 1\n{line}\nR 0.5 0 3\n"))

    def test_undecodable_bytes_name_their_line(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_bytes(b"R 1.0 0 5\n\xff\xfe bad\n")
        with pytest.raises(TraceFormatError, match="line 2.*decode"):
            read_trace(path)

    def test_negative_zero_time_loads(self):
        trace = read_trace(io.StringIO("R -0.0 0 1\nU -0.0 4\n"))
        assert trace.requests == [RequestRecord(0.0, 0, 1)] and trace.duration == 0.0


times = st.floats(min_value=0, max_value=1e6, allow_nan=False)


@given(
    requests=st.lists(
        st.tuples(times, st.integers(0, 99), st.integers(0, 9999)), max_size=30
    ),
    updates=st.lists(st.tuples(times, st.integers(0, 9999)), max_size=30),
)
@settings(max_examples=50, deadline=None)
def test_round_trip_property(requests, updates):
    trace = Trace(
        requests=[RequestRecord(t, c, d) for t, c, d in requests],
        updates=[UpdateRecord(t, d) for t, d in updates],
    )
    buf = io.StringIO()
    write_trace(trace, buf)
    restored = read_trace(io.StringIO(buf.getvalue()))
    # Timestamps survive at the serialized precision (6 decimal places);
    # records whose times collide at that precision may re-sort, so compare
    # as multisets of rounded records.
    def key_req(r):
        return (round(r.time, 6), r.cache_id, r.doc_id)

    def key_upd(u):
        return (round(u.time, 6), u.doc_id)

    assert sorted(map(key_req, restored.requests)) == sorted(
        map(key_req, trace.requests)
    )
    assert sorted(map(key_upd, restored.updates)) == sorted(
        map(key_upd, trace.updates)
    )
