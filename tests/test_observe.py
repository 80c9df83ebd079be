"""Unit tests for the observability layer: spans, histograms, registry, export."""

import json
import math
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cloud import CacheCloud
from repro.core.config import CloudConfig, PlacementScheme
from repro.core.node import MINUTES_TO_MS
from repro.experiments.runner import run_experiment
from repro.observe import (
    LogHistogram,
    SpanRecorder,
    Telemetry,
    dump_json,
    find_tree,
    render_span_tree,
    render_summary,
    span_trees,
    telemetry_to_jsonable,
    write_json,
)
from repro.core.fabric import MessageFabric
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.network.bandwidth import TrafficCategory
from repro.network.transport import Transport
from repro.workload.documents import build_corpus
from repro.workload.generator import SyntheticTraceGenerator, WorkloadConfig


class TestSpanRecorder:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            SpanRecorder(max_spans=0)

    def test_begin_end_pairing_and_ids(self):
        recorder = SpanRecorder()
        root = recorder.begin("request", 1.0, cache=3)
        child = recorder.begin("beacon_lookup", 1.0)
        recorder.end(child, 1.5, ok=True)
        recorder.end(root, 2.0, outcome="cloud_hit")
        assert root.span_id == 0 and root.parent_id is None
        assert child.span_id == 1 and child.parent_id == 0
        assert root.attrs == {"cache": 3, "outcome": "cloud_hit"}
        assert child.attrs == {"ok": True}
        assert recorder.depth == 0
        assert recorder.begun == 2

    def test_end_out_of_order_raises(self):
        recorder = SpanRecorder()
        root = recorder.begin("request", 0.0)
        recorder.begin("child", 0.0)
        with pytest.raises(RuntimeError, match="out of order"):
            recorder.end(root, 1.0)

    def test_end_without_open_span_raises(self):
        recorder = SpanRecorder()
        span = recorder.begin("x", 0.0)
        recorder.end(span, 1.0)
        with pytest.raises(RuntimeError):
            recorder.end(span, 2.0)

    def test_parent_end_widened_to_cover_children(self):
        recorder = SpanRecorder()
        root = recorder.begin("request", 0.0)
        leg = recorder.begin("fanout_leg", 0.0)
        recorder.end(leg, 7.5)
        # The closer only knows its own instant, but the child ran longer.
        recorder.end(root, 1.0)
        assert root.end == 7.5

    def test_widening_propagates_through_middle_spans(self):
        recorder = SpanRecorder()
        root = recorder.begin("update", 0.0)
        middle = recorder.begin("server_to_beacon", 0.0)
        leaf = recorder.begin("fanout_leg", 2.0)
        recorder.end(leaf, 9.0)
        recorder.end(middle, 3.0)
        recorder.end(root, 0.0)
        assert middle.end == 9.0
        assert root.end == 9.0

    def test_duration_zero_while_open(self):
        recorder = SpanRecorder()
        span = recorder.begin("x", 1.0)
        assert span.duration == 0.0
        recorder.end(span, 4.0)
        assert span.duration == 3.0

    def test_unwind_marks_aborted(self):
        recorder = SpanRecorder()
        root = recorder.begin("request", 0.0)
        recorder.begin("beacon_lookup", 0.0)
        recorder.begin("peer_fetch", 0.5)
        recorder.unwind(root, 2.0)
        assert recorder.depth == 0
        assert all(span.attrs.get("aborted") is True for span in recorder.spans)
        assert all(span.end == 2.0 for span in recorder.spans)

    def test_unwind_of_unknown_span_raises(self):
        recorder = SpanRecorder()
        a = recorder.begin("a", 0.0)
        recorder.end(a, 1.0)
        with pytest.raises(RuntimeError):
            recorder.unwind(a, 2.0)

    def test_max_spans_drops_monotonically(self):
        recorder = SpanRecorder(max_spans=2)
        for i in range(5):
            span = recorder.begin(f"s{i}", float(i))
            recorder.end(span, float(i) + 0.5)
        assert [s.name for s in recorder.spans] == ["s0", "s1"]
        assert recorder.dropped == 3
        assert recorder.begun == 5

    def test_dropped_spans_keep_parentage_consistent(self):
        # A span begun past the cap is not retained, so nothing about the
        # handle ``begin`` returned is part of the contract — only what an
        # export can see: the retained list, the counters, the stack depth.
        recorder = SpanRecorder(max_spans=1)
        root = recorder.begin("root", 0.0)
        child = recorder.begin("child", 0.0, doc=7)
        grandchild = recorder.begin("grandchild", 0.0)
        assert recorder.depth == 3
        assert child is not grandchild  # nested drops stay distinguishable
        recorder.end(grandchild, 0.5, ok=True)
        recorder.end(child, 1.0)
        recorder.end(root, 2.0)
        assert recorder.spans == [root]
        assert (recorder.begun, recorder.dropped, recorder.depth) == (3, 2, 0)
        assert root.span_id == 0 and root.parent_id is None
        assert root.attrs == {}  # dropped children leak no attributes

    def test_dropped_child_still_widens_retained_parent(self):
        recorder = SpanRecorder(max_spans=2)
        root = recorder.begin("root", 0.0)
        leg = recorder.begin("leg", 0.0)
        dropped = recorder.begin("dropped", 0.0)
        deeper = recorder.begin("deeper", 0.0)
        recorder.end(deeper, 9.0)  # dropped grandchild runs longest
        recorder.end(dropped, 1.0)
        recorder.end(leg, 2.0)
        recorder.end(root, 3.0)
        assert leg.end == 9.0 and root.end == 9.0
        assert [s.name for s in recorder.spans] == ["root", "leg"]

    def test_dropped_spans_still_check_pairing(self):
        recorder = SpanRecorder(max_spans=1)
        root = recorder.begin("root", 0.0)
        outer = recorder.begin("outer", 0.0)
        recorder.begin("inner", 0.0)
        with pytest.raises(RuntimeError, match="out of order"):
            recorder.end(outer, 1.0)
        with pytest.raises(RuntimeError, match="out of order"):
            recorder.end(root, 1.0)

    def test_unwind_across_the_cap(self):
        recorder = SpanRecorder(max_spans=2)
        root = recorder.begin("root", 0.0)
        leg = recorder.begin("leg", 0.0)
        recorder.begin("dropped", 0.0)
        recorder.begin("deeper", 0.0)
        recorder.unwind(leg, 4.0)  # closes deeper, dropped, leg — not root
        assert recorder.depth == 1
        assert leg.attrs == {"aborted": True} and leg.end == 4.0
        assert root.end is None and "aborted" not in root.attrs
        recorder.end(root, 5.0)
        assert recorder.depth == 0 and recorder.dropped == 2

    def test_unwind_to_a_dropped_span_stops_there(self):
        recorder = SpanRecorder(max_spans=1)
        root = recorder.begin("root", 0.0)
        outer = recorder.begin("outer", 0.0)
        recorder.begin("inner", 0.0)
        recorder.unwind(outer, 3.0)
        assert recorder.depth == 1 and root.end is None
        recorder.end(root, 1.0)
        assert root.end == 3.0  # widened by the unwound dropped spans

    def test_clear_across_the_cap_retains_again(self):
        recorder = SpanRecorder(max_spans=1)
        recorder.begin("kept", 0.0)
        recorder.begin("dropped", 0.0)
        recorder.clear()
        assert (recorder.spans, recorder.dropped, recorder.depth) == ([], 0, 0)
        fresh = recorder.begin("fresh", 1.0, tag="x")
        assert recorder.spans == [fresh]
        assert fresh.parent_id is None and fresh.attrs == {"tag": "x"}
        assert recorder.begun == 3  # ids are never reused

    def test_clear_resets_everything(self):
        recorder = SpanRecorder(max_spans=1)
        recorder.begin("a", 0.0)
        recorder.begin("b", 0.0)
        recorder.clear()
        assert recorder.spans == [] and recorder.depth == 0
        assert recorder.dropped == 0
        fresh = recorder.begin("c", 1.0)
        assert fresh.parent_id is None  # stack really was reset


class TestSpanSaturation:
    """``Telemetry.begin_span`` stops opening spans once the recorder is full
    with nothing open; what an export can see must equal what the recorder's
    own stack bookkeeping (``SpanRecorder.begin``/``end``, which never
    short-circuits) leaves for the same spans."""

    #: (name, start, own end, children) — three requests; the second one's
    #: last leg runs past its root's own end, with a nested leg under it.
    SCRIPT = [
        ("request", 0.0, 1.0, [("lookup", 0.0, 0.4, []), ("fetch", 0.4, 0.9, [])]),
        (
            "request", 2.0, 2.5,
            [
                ("lookup", 2.0, 2.2, []),
                ("fanout", 2.2, 7.0, [("leg", 2.2, 9.0, [("deeper", 2.3, 8.0, [])])]),
            ],
        ),
        ("update", 10.0, 10.0, [("leg", 10.0, 10.5, [])]),
        ("request", 11.0, 11.5, []),
    ]

    @staticmethod
    def exported(recorder):
        return {
            "recorded": len(recorder.spans),
            "dropped": recorder.dropped,
            "begun": recorder.begun,
            "trees": span_trees(recorder.spans),
        }

    def by_bookkeeping(self, cap):
        recorder = SpanRecorder(max_spans=cap)

        def walk(node):
            name, start, end, children = node
            span = recorder.begin(name, start, tag=name)
            for child in children:
                walk(child)
            recorder.end(span, end, closed=True)

        for root in self.SCRIPT:
            walk(root)
        return recorder

    def by_telemetry(self, cap):
        tel = Telemetry(max_spans=cap)
        skipped = 0

        def walk(node):
            nonlocal skipped
            name, start, end, children = node
            span = tel.begin_span(name, start, tag=name)
            for child in children:
                walk(child)
            if span is not None:
                tel.end_span(span, end, closed=True)
            else:
                skipped += 1

        for root in self.SCRIPT:
            walk(root)
        return tel.spans, skipped

    #: cap -> spans begun after saturation (their begin/end pair is skipped),
    #: of the script's 11. 3: the cap is hit by the last span of a request;
    #: 4: by a root; 5: mid-request with the retained root open; 6-8: inside
    #: the nested drops; 11: by the very last span; 12: never.
    @pytest.mark.parametrize(
        "cap, skipped",
        [(1, 8), (3, 8), (4, 3), (5, 3), (6, 3), (7, 3), (8, 3), (9, 1), (10, 1),
         (11, 0), (12, 0)],
    )
    def test_export_equals_the_stack_bookkeeping(self, cap, skipped):
        recorder, skipped_pairs = self.by_telemetry(cap)
        assert self.exported(recorder) == self.exported(self.by_bookkeeping(cap))
        assert skipped_pairs == skipped
        assert recorder.depth == 0
        assert recorder.saturated == (cap <= 11)

    def test_open_retained_parent_is_still_widened_by_dropped_children(self):
        recorder, _ = self.by_telemetry(5)  # cap hit at the second "lookup"
        second = recorder.spans[3]
        assert second.name == "request" and second.start == 2.0
        assert second.end == 9.0  # its own end was 2.5; a dropped leg ran to 9.0
        assert [s.name for s in recorder.spans] == [
            "request", "lookup", "fetch", "request", "lookup",
        ]

    def test_not_saturated_while_anything_is_open(self):
        tel = Telemetry(max_spans=1)
        root = tel.begin_span("request", 0.0)
        assert not tel.spans.saturated  # full, but the root is open
        child = tel.begin_span("leg", 0.0)
        assert child is not None and tel.spans.depth == 2
        tel.end_span(child, 5.0)
        assert not tel.spans.saturated
        tel.end_span(root, 1.0)
        assert tel.spans.saturated and root.end == 5.0
        assert tel.begin_span("request", 2.0, doc=1) is None
        assert (tel.spans.begun, tel.spans.dropped, tel.spans.depth) == (3, 2, 0)

    def test_counters_add_up_across_a_clear(self):
        tel = Telemetry(max_spans=2)
        for index in range(5):
            span = tel.begin_span("request", float(index))
            if span is not None:
                tel.end_span(span, float(index))
        recorder = tel.spans
        assert (recorder.begun, len(recorder.spans), recorder.dropped) == (5, 2, 3)
        recorder.clear()  # leaves saturation; ids keep running
        assert not recorder.saturated
        assert (recorder.begun, len(recorder.spans), recorder.dropped) == (5, 0, 0)
        fresh = tel.begin_span("request", 9.0)
        assert fresh is not None and fresh.span_id == 5
        tel.end_span(fresh, 9.5)
        assert tel.begin_span("request", 10.0) is not None
        assert tel.begin_span("nested", 10.0) is not None  # a placeholder
        assert (recorder.begun, len(recorder.spans), recorder.dropped) == (8, 2, 1)

    def test_exception_under_a_saturated_root_propagates_cleanly(self):
        corpus = build_corpus(20, fixed_size=1024)
        cloud = CacheCloud(
            CloudConfig(num_caches=4, num_rings=2, failure_resilience=True, seed=3),
            corpus,
        )
        telemetry = Telemetry(max_spans=2)
        cloud.attach_telemetry(telemetry)
        for doc_id in range(3):
            cloud.handle_request(0, doc_id, float(doc_id))
            cloud.handle_update(doc_id, float(doc_id))
        assert telemetry.spans.saturated
        begun = telemetry.spans.begun
        cloud.fail_cache(1, 5.0)
        with pytest.raises(RuntimeError, match="failed cache"):
            cloud.handle_request(1, 0, 6.0)  # root is None: nothing to unwind
        assert telemetry.spans.depth == 0
        assert telemetry.spans.begun == begun + 1
        assert len(telemetry.spans.spans) == 2
        assert all(span.end is not None for span in telemetry.spans.spans)


class TestLogHistogram:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LogHistogram(lower=0.0)
        with pytest.raises(ValueError):
            LogHistogram(lower=10.0, upper=1.0)
        with pytest.raises(ValueError):
            LogHistogram(buckets_per_decade=0)

    def test_bounds_are_data_independent(self):
        # Two histograms fed different data keep identical bucket edges.
        a, b = LogHistogram(), LogHistogram()
        a.record(0.004)
        b.record(123456.0)
        assert a.bounds == b.bounds

    def test_a_shape_shares_one_immutable_set_of_edges(self):
        a, b = LogHistogram(), LogHistogram()
        assert a.bounds is b.bounds and isinstance(a.bounds, tuple)
        walk = LogHistogram(lower=1.0, upper=1e6)
        assert walk.bounds is not a.bounds and walk.bounds[1] == 1.0
        # Shapes equal as numbers but not as types do not share: an int
        # ``lower`` keeps its int edge, which the export writes as ``1``.
        LogHistogram(lower=1.0, upper=100.0)
        assert type(LogHistogram(lower=1, upper=100).bounds[1]) is int

    def test_underflow_bucket_catches_zero_and_negatives(self):
        hist = LogHistogram(lower=1.0, upper=100.0, buckets_per_decade=1)
        hist.record(0.0)
        hist.record(-5.0)  # clamps to zero
        hist.record(0.5)
        assert hist.counts[0] == 3
        assert hist.min == 0.0
        assert hist.percentile(0.5) == 0.0

    def test_overflow_bucket(self):
        hist = LogHistogram(lower=1.0, upper=100.0, buckets_per_decade=1)
        hist.record(1e9)
        assert hist.counts[-1] == 1
        assert hist.percentile(0.99) == 1e9  # representative is observed max

    def test_percentiles_nearest_rank(self):
        hist = LogHistogram(lower=1.0, upper=1000.0, buckets_per_decade=1)
        for value in (2.0, 3.0, 40.0, 50.0, 600.0):
            hist.record(value)
        # Ranks 1-2 land in (1, 10], rank 3-4 in (10, 100], rank 5 in (100, 1000].
        assert hist.percentile(0.0) == 10.0  # rank 1 -> first bucket's edge
        assert hist.percentile(0.40) == 10.0
        assert hist.percentile(0.80) == 100.0
        assert hist.percentile(1.0) == 600.0  # clamped down to observed max

    def test_values_exactly_on_bucket_edges(self):
        """Edges are inclusive upper bounds: a value equal to an edge lands
        in the bucket that edge closes, never the one above it."""
        hist = LogHistogram(lower=1.0, upper=1000.0, buckets_per_decade=1)
        # bounds == [0.0, 1.0, 10.0, 100.0, 1000.0]
        for value in (1.0, 10.0, 100.0, 1000.0):
            hist.record(value)
        assert hist.counts == [0, 1, 1, 1, 1, 0]
        # Each edge value is its bucket's representative, so nearest-rank
        # percentiles on edge data are exact.
        assert hist.percentile(0.25) == 1.0
        assert hist.percentile(0.5) == 10.0
        assert hist.percentile(1.0) == 1000.0

    def test_lower_edge_is_not_underflow(self):
        # Exactly ``lower`` belongs to the first real bucket; underflow is
        # the half-open [0, lower) only.
        hist = LogHistogram(lower=1.0, upper=100.0, buckets_per_decade=1)
        hist.record(1.0)
        assert hist.counts[0] == 0
        assert hist.counts[1] == 1
        assert hist.percentile(0.5) == 1.0

    def test_last_edge_is_not_overflow(self):
        hist = LogHistogram(lower=1.0, upper=100.0, buckets_per_decade=1)
        # bounds == [0.0, 1.0, 10.0, 100.0]: 100.0 closes the last real
        # bucket; only values strictly above it overflow.
        hist.record(100.0)
        hist.record(100.0000001)
        assert hist.counts[-2] == 1
        assert hist.counts[-1] == 1

    @staticmethod
    def _reference_record(hist, value):
        """``LogHistogram.record`` as it was before its underflow fast path."""
        value = max(0.0, float(value))
        index = bisect_left(hist.bounds, value)
        if index == 1 and value < hist.bounds[1]:
            index = 0
        hist.counts[index] += 1
        hist.count += 1
        hist.total += value
        if hist.min is None or value < hist.min:
            hist.min = value
        if hist.max is None or value > hist.max:
            hist.max = value

    _EDGES = LogHistogram(lower=1e-3, upper=1e3, buckets_per_decade=2).bounds
    _TRICKY = (
        [0.0, -0.0, -1.0, -1e-300, 5e-324, 1e-4, 1e9, math.inf, -math.inf, 0, 3, -2]
        + list(_EDGES)
        + [math.nextafter(edge, math.inf) for edge in _EDGES]
        + [math.nextafter(edge, -math.inf) for edge in _EDGES]
    )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(_TRICKY),
                st.floats(allow_nan=False),
                st.integers(min_value=-10, max_value=10**7),
            ),
            max_size=30,
        )
    )
    def test_record_equals_the_bisect_formula_bucket_for_bucket(self, values):
        fast = LogHistogram(lower=1e-3, upper=1e3, buckets_per_decade=2)
        slow = LogHistogram(lower=1e-3, upper=1e3, buckets_per_decade=2)
        for value in values:
            fast.record(value)
            self._reference_record(slow, value)
        assert fast.counts == slow.counts
        # ``repr`` keeps 0.0 / -0.0 / int-vs-float apart; ``==`` would not.
        assert repr((fast.count, fast.total, fast.min, fast.max)) == repr(
            (slow.count, slow.total, slow.min, slow.max)
        )
        assert json.dumps(fast.to_dict()) == json.dumps(slow.to_dict())

    def test_percentile_validates_q(self):
        hist = LogHistogram()
        hist.record(1.0)
        with pytest.raises(ValueError):
            hist.percentile(1.5)

    def test_empty_histogram(self):
        hist = LogHistogram()
        assert hist.percentile(0.5) is None
        assert hist.mean is None
        summary = hist.to_dict()
        assert summary["count"] == 0
        assert summary["p99"] is None
        assert summary["buckets"] == []

    def test_to_dict_sparse_buckets(self):
        hist = LogHistogram(lower=1.0, upper=100.0, buckets_per_decade=1)
        hist.record(5.0)
        hist.record(5.0)
        hist.record(1e9)
        summary = hist.to_dict()
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(1_000_000_010.0)
        assert [10.0, 2] in summary["buckets"]
        assert [None, 1] in summary["buckets"]  # overflow edge has no bound
        assert len(summary["buckets"]) == 2
        json.dumps(summary)  # everything is JSON-serializable


class TestTelemetry:
    def test_count_and_gauge(self):
        tel = Telemetry()
        tel.count("requests.cloud_hit")
        tel.count("requests.cloud_hit", 2)
        tel.gauge("docs", 41.0)
        tel.gauge("docs", 42.0)
        assert tel.counters["requests.cloud_hit"] == 3
        assert tel.gauges["docs"] == 42.0

    def test_histogram_is_created_once(self):
        tel = Telemetry()
        assert tel.histogram("latency_ms.control") is tel.histogram("latency_ms.control")

    def test_record_attempt_delivered(self):
        tel = Telemetry()
        tel.record_attempt("peer_transfer", 2048, 0.001)
        assert tel.counters["fabric.attempts.peer_transfer"] == 1
        assert "fabric.lost.peer_transfer" not in tel.counters
        assert tel.histograms["bytes.peer_transfer"].count == 1
        latency = tel.histograms["latency_ms.peer_transfer"]
        assert latency.count == 1
        assert latency.max == pytest.approx(0.001 * MINUTES_TO_MS)

    def test_record_attempt_lost(self):
        tel = Telemetry()
        tel.record_attempt("origin_fetch", 512, None)
        assert tel.counters["fabric.attempts.origin_fetch"] == 1
        assert tel.counters["fabric.lost.origin_fetch"] == 1
        assert tel.histograms["bytes.origin_fetch"].count == 1
        assert "latency_ms.origin_fetch" not in tel.histograms

    def test_fabric_creates_instruments_only_for_traffic_it_saw(self):
        # The fabric resolves its per-category handles at attach time, but
        # an instrument must still appear in the export only once its
        # category carried traffic: the export's shape depends on which
        # categories were used, never on the seed or on who was attached.
        transport = Transport()
        fabric = MessageFabric(transport)
        tel = Telemetry()
        fabric.telemetry = tel
        assert tel.histograms == {} and tel.counters == {} and tel.gauges == {}
        fabric.send_control(0, 1)
        assert set(tel.histograms) == {"bytes.control", "latency_ms.control"}
        assert tel.counters == {"fabric.attempts.control": 1}
        # A lost attempt is counted, not measured: no latency histogram.
        fabric.attach_faults(FaultInjector(FaultPlan(loss_rate=1.0), transport))
        fabric.send_document(0, 1, 512, TrafficCategory.PEER_TRANSFER)
        assert set(tel.histograms) == {
            "bytes.control", "latency_ms.control", "bytes.peer_transfer",
        }
        assert tel.counters["fabric.lost.peer_transfer"] == 1
        # Re-attaching the same registry resumes the same instruments.
        fabric.detach_faults()
        fabric.telemetry = None
        fabric.telemetry = tel
        fabric.send_control(1, 0)
        assert tel.counters["fabric.attempts.control"] == 2
        assert tel.histograms["bytes.control"].count == 2
        assert len(tel.histograms) == 3 and tel.gauges == {}

    def test_observe_request_feeds_series_and_histogram(self):
        tel = Telemetry()
        tel.observe_request(5.0, 12.5)
        tel.observe_request(6.0, 2.5)
        assert len(tel.request_latencies) == 2
        assert tel.histograms["latency_ms.request"].count == 2


class TestExport:
    def build_telemetry(self):
        tel = Telemetry()
        root = tel.begin_span("request", 0.0, cache=1, doc=7)
        lookup = tel.begin_span("beacon_lookup", 0.0, beacon=2)
        tel.end_span(lookup, 0.2, ok=True)
        fetch = tel.begin_span("peer_fetch", 0.2, holder=3)
        tel.end_span(fetch, 0.6, ok=True)
        placement = tel.begin_span("placement", 0.6)
        tel.end_span(placement, 0.6, stored=True)
        tel.end_span(root, 0.6, outcome="cloud_hit")
        tel.count("requests.cloud_hit")
        tel.record_attempt("peer_transfer", 1024, 0.0001)
        return tel

    def test_span_trees_nesting(self):
        tel = self.build_telemetry()
        trees = span_trees(tel.spans.spans)
        assert len(trees) == 1
        root = trees[0]
        assert root["name"] == "request"
        assert [child["name"] for child in root["children"]] == [
            "beacon_lookup",
            "peer_fetch",
            "placement",
        ]

    def test_span_trees_tolerates_orphans(self):
        recorder = SpanRecorder()
        orphan = recorder.begin("lonely", 1.0)
        recorder.end(orphan, 2.0)
        orphan.parent_id = 999  # parent never retained
        trees = span_trees(recorder.spans)
        assert [tree["name"] for tree in trees] == ["lonely"]

    def test_find_tree(self):
        tel = self.build_telemetry()
        trees = span_trees(tel.spans.spans)
        hit = find_tree(trees, {"request", "beacon_lookup", "peer_fetch", "placement"})
        assert hit is trees[0]
        assert find_tree(trees, {"request", "origin_fetch"}) is None

    def test_render_span_tree(self):
        tel = self.build_telemetry()
        text = render_span_tree(span_trees(tel.spans.spans)[0])
        assert "request" in text and "  beacon_lookup" in text
        assert "outcome=cloud_hit" in text
        assert "holder=3" in text

    def test_render_summary(self):
        text = render_summary(self.build_telemetry())
        assert "requests.cloud_hit: 1" in text
        assert "latency_ms.peer_transfer" in text
        assert "recorded=4" in text

    def test_jsonable_snapshot_shape(self):
        snapshot = telemetry_to_jsonable(self.build_telemetry())
        assert snapshot["schema_version"] == Telemetry.SCHEMA_VERSION
        assert snapshot["counters"]["fabric.attempts.peer_transfer"] == 1
        assert snapshot["spans"]["recorded"] == 4
        assert snapshot["spans"]["dropped"] == 0

    def test_dump_json_is_stable(self):
        assert dump_json(self.build_telemetry()) == dump_json(self.build_telemetry())

    def test_write_json_round_trips(self, tmp_path):
        path = tmp_path / "telemetry.json"
        write_json(self.build_telemetry(), str(path))
        data = json.loads(path.read_text())
        assert data["schema_version"] == Telemetry.SCHEMA_VERSION


class TestExperimentIntegration:
    def run_traced(self):
        corpus = build_corpus(60, fixed_size=2048)
        generator = SyntheticTraceGenerator(
            WorkloadConfig(
                num_documents=60,
                num_caches=4,
                request_rate_per_cache=30.0,
                update_rate=10.0,
                duration_minutes=8.0,
                seed=11,
            )
        )
        config = CloudConfig(
            num_caches=4,
            num_rings=2,
            intra_gen=100,
            cycle_length=4.0,
            placement=PlacementScheme.AD_HOC,
            seed=11,
        )
        telemetry = Telemetry()
        result = run_experiment(
            config,
            corpus,
            generator.requests(),
            generator.updates(),
            duration=8.0,
            telemetry=telemetry,
        )
        return result, telemetry

    def test_same_seed_runs_are_bit_identical(self):
        _, first = self.run_traced()
        _, second = self.run_traced()
        assert dump_json(first) == dump_json(second)

    def test_traced_run_covers_the_protocol(self):
        result, telemetry = self.run_traced()
        assert result.requests > 0
        # Every handled request opened a root span and bumped a counter.
        requests_counted = sum(
            count
            for name, count in telemetry.counters.items()
            if name.startswith("requests.")
        )
        assert requests_counted == result.requests
        assert telemetry.counters["updates.handled"] == result.updates
        assert telemetry.spans.depth == 0  # every span was closed
        # A collaborative miss reconstructs as the canonical tree.
        trees = span_trees(telemetry.spans.spans)
        collaborative = find_tree(
            trees, {"request", "beacon_lookup", "peer_fetch", "placement"}
        )
        assert collaborative is not None
        assert telemetry.histograms["latency_ms.request"].count == result.requests

    def test_spans_nest_inside_their_roots(self):
        _, telemetry = self.run_traced()
        for tree in span_trees(telemetry.spans.spans):
            assert tree["name"] in {"request", "update"}
            start, end = tree["start"], tree["end"]
            assert end is not None and end >= start
            for child in tree["children"]:
                assert child["start"] >= start
                assert child["end"] is not None and child["end"] <= end
