"""Property-based invariant tests over randomized operation sequences.

A hypothesis-driven "model check" of the cloud: random interleavings of
requests, updates, cycles, failures, and recoveries must preserve the
system's safety invariants (directory soundness, partition totality,
freshness of pushed copies).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cloud import CacheCloud
from repro.core.config import CloudConfig, PlacementScheme
from repro.workload.documents import build_corpus

NUM_CACHES = 4
NUM_DOCS = 25


def build_cloud(capacity=None, resilience=False):
    corpus = build_corpus(NUM_DOCS, fixed_size=1024)
    config = CloudConfig(
        num_caches=NUM_CACHES,
        num_rings=2,
        intra_gen=64,
        cycle_length=5.0,
        placement=PlacementScheme.AD_HOC,
        capacity_bytes=capacity,
        failure_resilience=resilience,
    )
    return CacheCloud(config, corpus)


operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("request"),
            st.integers(0, NUM_CACHES - 1),
            st.integers(0, NUM_DOCS - 1),
        ),
        st.tuples(st.just("update"), st.integers(0, NUM_DOCS - 1), st.none()),
        st.tuples(st.just("cycle"), st.none(), st.none()),
    ),
    max_size=120,
)


def check_directory_soundness(cloud):
    """Directory claims ⊆ ground truth, and beacons own disjoint doc sets."""
    seen_docs = {}
    for beacon_id, state in cloud.beacons.items():
        for doc_id in state.directory:
            assert doc_id not in seen_docs, (
                f"doc {doc_id} known to beacons {seen_docs[doc_id]} and {beacon_id}"
            )
            seen_docs[doc_id] = beacon_id
            holders = state.directory.holders(doc_id)
            truth = cloud.holders_of(doc_id)
            assert holders <= truth | set(), f"doc {doc_id}: {holders} vs {truth}"


def check_partition_totality(cloud):
    for ring in cloud.assigner.rings:
        total = sum(ring.arc_of(m).width for m in ring.members)
        assert total == ring.intra_gen


def check_freshness(cloud):
    """Every resident copy registered at its beacon must be fresh."""
    for doc_id in range(NUM_DOCS):
        version = cloud.origin.version_of(doc_id)
        beacon = cloud.beacon_for_doc(doc_id)
        for holder in cloud.beacons[beacon].directory.holders(doc_id):
            assert cloud.caches[holder].storage.version_of(doc_id) == version


@given(ops=operations)
@settings(max_examples=30, deadline=None)
def test_invariants_unlimited_disk(ops):
    cloud = build_cloud()
    now = 0.0
    for op in ops:
        now += 0.1
        kind = op[0]
        if kind == "request":
            cloud.handle_request(op[1], op[2], now)
        elif kind == "update":
            cloud.handle_update(op[1], now)
        else:
            cloud.run_cycle(now)
    check_directory_soundness(cloud)
    check_partition_totality(cloud)
    check_freshness(cloud)


@given(ops=operations)
@settings(max_examples=30, deadline=None)
def test_invariants_limited_disk(ops):
    cloud = build_cloud(capacity=5 * 1024)  # room for 5 documents per cache
    now = 0.0
    for op in ops:
        now += 0.1
        kind = op[0]
        if kind == "request":
            cloud.handle_request(op[1], op[2], now)
        elif kind == "update":
            cloud.handle_update(op[1], now)
        else:
            cloud.run_cycle(now)
    check_directory_soundness(cloud)
    check_partition_totality(cloud)
    check_freshness(cloud)
    for cache in cloud.caches:
        assert cache.storage.used_bytes <= 5 * 1024


failure_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("request"),
            st.integers(0, NUM_CACHES - 1),
            st.integers(0, NUM_DOCS - 1),
        ),
        st.tuples(st.just("update"), st.integers(0, NUM_DOCS - 1), st.none()),
        st.tuples(st.just("cycle"), st.none(), st.none()),
        st.tuples(st.just("fail"), st.integers(0, NUM_CACHES - 1), st.none()),
        st.tuples(st.just("recover"), st.integers(0, NUM_CACHES - 1), st.none()),
    ),
    max_size=100,
)


@given(ops=failure_operations)
@settings(max_examples=30, deadline=None)
def test_invariants_under_failures(ops):
    cloud = build_cloud(resilience=True)
    now = 0.0
    down = set()
    for op in ops:
        now += 0.1
        kind = op[0]
        if kind == "request":
            cache_id = op[1]
            if cache_id in down:
                continue
            cloud.handle_request(cache_id, op[2], now)
        elif kind == "update":
            cloud.handle_update(op[1], now)
        elif kind == "cycle":
            cloud.run_cycle(now)
        elif kind == "fail":
            cache_id = op[1]
            ring = cloud.failure_manager.ring_of(cache_id)
            # Keep at least one live member per ring, and an arc wide enough
            # to split on recovery.
            if cache_id in down or len(ring.members) <= 1:
                continue
            cloud.fail_cache(cache_id, now)
            down.add(cache_id)
        else:  # recover
            cache_id = op[1]
            if cache_id not in down:
                continue
            try:
                cloud.recover_cache(cache_id, now)
            except ValueError:
                # Donor arc too narrow to split — legal corner; node stays down.
                cloud.caches[cache_id].fail(now)
                continue
            down.discard(cache_id)
    check_partition_totality(cloud)
    # After failures, directories may be conservative (scrubbed) but must
    # never name a dead cache or a non-holder as a holder for serving.
    for beacon_id, state in cloud.beacons.items():
        if beacon_id in down:
            continue
        for doc_id in list(state.directory):
            for holder in state.directory.holders(doc_id):
                assert holder not in down
