"""Exactness net for the trace pipeline, draw to merge.

The four record streams (``SydneyTraceGenerator`` and
``SyntheticTraceGenerator``, ``requests``/``updates``) are each one loop with
the stdlib helpers spelled out in the arithmetic they perform, and
``merge_streams`` is a hand-written two-way merge. The per-stream draw order
*is* the trace format, so that is meant to change nothing but host time.

The oracle here is not a frozen copy of an old commit: it is the by-the-book
loop written with the *stdlib* spellings and the public reporting helpers —
``rng.expovariate``, ``rng.randrange``, ``rng.choices``, ``sampler.sample()``,
``gen.diurnal_factor``, ``gen.epoch_at``, ``heapq.merge`` — so on every
interpreter CI runs it also says "the inlined arithmetic is still what
``random`` does". For each stream it compares the records (by ``repr``: bit
for bit) and ``getstate()`` of every named ``RandomStreams`` stream, at the
end *and* after a prefix of k records (laziness and draw order). The last
class recompiles the generators with one seam removed and requires the net to
tear; ``TestFramesPerRecord`` holds the seed-exact cost of a generated record.
"""

from __future__ import annotations

import collections
import gc
import heapq
import inspect
import itertools
import math
import random
import sys
import textwrap
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.rng import derive_seed
from repro.workload import generator as generator_module
from repro.workload import sydney as sydney_module
from repro.workload import trace as trace_module
from repro.workload.generator import SyntheticTraceGenerator, WorkloadConfig, poisson_arrivals
from repro.workload.sydney import SydneyConfig, SydneyTraceGenerator
from repro.workload.trace import RequestRecord, TraceRecord, UpdateRecord, merge_streams
from repro.workload.zipf import ZipfSampler

PREFIXES: Tuple[Optional[int], ...] = (None, 1, 17, 1_000)


# ----------------------------------------------------------------------
# The oracle: each stream by the book
# ----------------------------------------------------------------------
def arrivals_by_the_book(rate: float, duration: float, rng: random.Random) -> Iterator[float]:
    if rate <= 0:
        return
    t = rng.expovariate(rate)
    while t < duration:
        yield t
        t += rng.expovariate(rate)


def sydney_requests_by_the_book(gen: SydneyTraceGenerator) -> Iterator[RequestRecord]:
    cfg, streams = gen.config, gen._streams
    arrival_rng = streams.get("request-arrivals")
    thin_rng = streams.get("request-thinning")
    doc_rng = streams.get("request-docs")
    cache_rng = streams.get("request-caches")
    flash_rng = streams.get("flash-redirect")
    sampler = ZipfSampler(cfg.num_documents, cfg.alpha, doc_rng)
    volume = cfg.flash_rate_boost
    peak_rate = cfg.num_caches * cfg.peak_request_rate_per_cache
    for t in arrivals_by_the_book(peak_rate * volume, cfg.duration_minutes, arrival_rng):
        # The first window, in sorted order, that contains t.
        flash_rank = next(
            (rank for start, end, rank in gen._flash_events if start <= t < end), None
        )
        envelope = gen.diurnal_factor(t)
        if volume > 1.0 and flash_rank is not None:
            envelope = min(volume, envelope * volume)
        if thin_rng.random() > envelope / volume:
            continue
        rank = sampler.sample()
        if flash_rank is not None:
            extra = (cfg.flash_multiplier - 1.0) * sampler.probability(flash_rank)
            if flash_rng.random() < min(extra, 0.5):
                rank = flash_rank
        doc_id = gen._epoch_maps[gen.epoch_at(t)][rank]
        yield RequestRecord(time=t, cache_id=cache_rng.randrange(cfg.num_caches), doc_id=doc_id)


def sydney_updates_by_the_book(gen: SydneyTraceGenerator) -> Iterator[UpdateRecord]:
    cfg, streams = gen.config, gen._streams
    arrival_rng = streams.get("update-arrivals")
    pick_rng = streams.get("update-docs")
    sampler = ZipfSampler(cfg.num_documents, cfg.alpha, pick_rng)
    live = gen.live_documents
    for t in arrivals_by_the_book(cfg.base_update_rate, cfg.duration_minutes, arrival_rng):
        if pick_rng.random() < cfg.live_update_share:
            doc_id = live[pick_rng.randrange(len(live))]
        else:
            doc_id = gen._epoch_maps[gen.epoch_at(t)][sampler.sample()]
        yield UpdateRecord(time=t, doc_id=doc_id)


def synthetic_requests_by_the_book(gen: SyntheticTraceGenerator) -> Iterator[RequestRecord]:
    cfg, streams = gen.config, gen._streams
    arrival_rng = streams.get("request-arrivals")
    doc_rng = streams.get("request-docs")
    cache_rng = streams.get("request-caches")
    sampler = ZipfSampler(cfg.num_documents, cfg.alpha_requests, doc_rng)
    total_rate = cfg.num_caches * cfg.request_rate_per_cache
    for t in arrivals_by_the_book(total_rate, cfg.duration_minutes, arrival_rng):
        doc_id = gen.doc_for_rank(sampler.sample())
        cache_id = cache_rng.randrange(cfg.num_caches)
        yield RequestRecord(time=t, cache_id=cache_id, doc_id=doc_id)


def synthetic_updates_by_the_book(gen: SyntheticTraceGenerator) -> Iterator[UpdateRecord]:
    cfg, streams = gen.config, gen._streams
    arrival_rng = streams.get("update-arrivals")
    sampler = ZipfSampler(cfg.num_documents, cfg.alpha_requests, streams.get("update-docs"))
    for t in arrivals_by_the_book(cfg.update_rate, cfg.duration_minutes, arrival_rng):
        yield UpdateRecord(time=t, doc_id=gen.doc_for_rank(sampler.sample()))


def _stream_key(record: TraceRecord) -> Tuple[float, int]:
    # Updates (kind 0) win ties against requests (kind 1).
    return (record.time, 0 if isinstance(record, UpdateRecord) else 1)


def merge_by_the_book(
    requests: Iterable[RequestRecord], updates: Iterable[UpdateRecord]
) -> Iterator[TraceRecord]:
    return heapq.merge(requests, updates, key=_stream_key)


#: kind -> (config class, generator class, {stream: by-the-book form}).
Classes = Dict[str, Tuple[type, type]]
REAL: Classes = {
    "sydney": (SydneyConfig, SydneyTraceGenerator),
    "synthetic": (WorkloadConfig, SyntheticTraceGenerator),
}
BY_THE_BOOK: Dict[str, Dict[str, Callable[[Any], Iterator[TraceRecord]]]] = {
    "sydney": {"requests": sydney_requests_by_the_book, "updates": sydney_updates_by_the_book},
    "synthetic": {
        "requests": synthetic_requests_by_the_book,
        "updates": synthetic_updates_by_the_book,
    },
}


# ----------------------------------------------------------------------
# Scripted streams: the two comparisons a seeded stream never lands on
# ----------------------------------------------------------------------
class Scripted(random.Random):
    """``random()`` replays a script, then continues with the seeded stream."""

    def __init__(self, seed: int, script: Sequence[float]) -> None:
        super().__init__(seed)
        self._script = list(reversed(script))

    def random(self) -> float:
        return self._script.pop() if self._script else super().random()

    def getstate(self) -> Any:
        return (super().getstate(), tuple(self._script))


def last_ulp_arrivals(rate: float, duration: float) -> Tuple[List[float], List[float]]:
    """``random()`` values for two arrivals, the second on the last float below ``duration``.

    That is the one arrival whose ``int(t / epoch_len)`` rounds up to
    ``num_epochs`` and needs ``epoch_at``'s clamp. Returns (script, times);
    the times are what ``expovariate`` makes of the script.
    """
    target = math.nextafter(duration, 0.0)
    first = 0.999
    t1 = Scripted(0, [first]).expovariate(rate)
    u = 1.0 - math.exp(-(target - t1) * rate)
    for _ in range(64):
        u = math.nextafter(u, 0.0)
    for _ in range(128):
        if t1 + Scripted(0, [u]).expovariate(rate) == target:
            return [first, u], [t1, target]
        u = math.nextafter(u, 1.0)
    raise AssertionError("no random() value lands on the last float below duration")


def script_edges(gen: SydneyTraceGenerator) -> Dict[str, List[float]]:
    """Arrival 1 draws a thinning value *equal* to its envelope (kept: the
    parent skipped on ``>``); arrival 2 sits on the last float of the trace."""
    cfg = gen.config
    script, times = last_ulp_arrivals(cfg.base_update_rate, cfg.duration_minutes)
    assert cfg.num_caches * cfg.peak_request_rate_per_cache == cfg.base_update_rate
    epoch_len = cfg.duration_minutes / cfg.num_epochs
    assert int(times[1] / epoch_len) == cfg.num_epochs  # the clamp matters here
    return {
        "request-arrivals": script,
        "update-arrivals": script,
        "request-thinning": [gen.diurnal_factor(times[0]), 0.0],
    }


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def nest_windows(gen: SydneyTraceGenerator) -> Dict[str, List[float]]:
    """Windows of unequal length, nested and overlapping — no configuration
    plans these (every window lasts ``flash_duration_minutes``), but the rule
    is "the first, in sorted order, that holds t" for any sorted list."""
    gen._flash_events = [(0.0, 25.0, 3), (3.0, 6.0, 40), (5.0, 28.0, 7), (26.0, 27.0, 90)]
    return {}


class Scenario:
    """A generator configuration; ``prepare`` may rig the built generator and
    names the streams to script (stream name -> ``random()`` values)."""

    def __init__(
        self,
        name: str,
        kind: str,
        prepare: Optional[Callable[[Any], Dict[str, List[float]]]] = None,
        **config: Any,
    ) -> None:
        self.name, self.kind, self.prepare, self.config = name, kind, prepare, config

    def build(self, classes: Classes) -> Any:
        config_cls, generator_cls = classes[self.kind]
        gen = generator_cls(config_cls(**self.config))
        if self.prepare is not None:
            for stream, values in self.prepare(gen).items():
                seed = derive_seed(gen.config.seed, stream)
                gen._streams._streams[stream] = Scripted(seed, values)
        return gen

    def __repr__(self) -> str:
        return self.name


def small_sydney(**overrides: Any) -> Dict[str, Any]:
    config: Dict[str, Any] = dict(
        num_documents=400,
        num_caches=16,
        peak_request_rate_per_cache=12.0,
        base_update_rate=60.0,
        duration_minutes=30.0,
        diurnal_period_minutes=30.0,
        drift_pool=150,
        flash_duration_minutes=6.0,
    )
    config.update(overrides)
    return config


def small_synthetic(**overrides: Any) -> Dict[str, Any]:
    config: Dict[str, Any] = dict(
        num_documents=400,
        num_caches=16,
        request_rate_per_cache=12.0,
        update_rate=60.0,
        duration_minutes=20.0,
    )
    config.update(overrides)
    return config


#: The ``figure-sim`` trace shape of the repository benchmark.
FIGURE_SIM = dict(
    num_documents=5_000,
    num_caches=20,
    peak_request_rate_per_cache=120.0,
    base_update_rate=195.0,
    duration_minutes=280.0,
    diurnal_period_minutes=280.0,
    seed=derive_seed(11, "trace"),
)

SCENARIOS = [
    Scenario("sydney-defaults", "sydney", **small_sydney(seed=1)),
    Scenario("sydney-figure-sim-head", "sydney", **{**FIGURE_SIM, "duration_minutes": 8.0}),
    Scenario("sydney-volume-boost", "sydney", **small_sydney(seed=2, flash_rate_boost=3.0)),
    Scenario(
        "sydney-scripted-flash-times",
        "sydney",
        **small_sydney(seed=3, flash_times=(2.0, 12.5, 21.0), flash_multiplier=400.0),
    ),
    Scenario(
        "sydney-overlapping-windows",
        "sydney",
        **small_sydney(seed=4, flash_times=(5.0, 8.0, 8.0, 10.5), flash_rate_boost=2.0),
    ),
    Scenario(
        "sydney-window-touching-duration",
        "sydney",
        **small_sydney(seed=5, flash_times=(0.0, 27.0), flash_multiplier=1e6),
    ),
    Scenario(
        "sydney-nested-windows",
        "sydney",
        prepare=nest_windows,
        **small_sydney(seed=12, flash_multiplier=300.0, flash_rate_boost=1.5),
    ),
    Scenario("sydney-one-cache", "sydney", **small_sydney(seed=6, num_caches=1)),
    Scenario("sydney-33-caches", "sydney", **small_sydney(seed=7, num_caches=33)),
    Scenario("sydney-uniform-popularity", "sydney", **small_sydney(seed=8, alpha=0.0)),
    Scenario(
        "sydney-zero-rates",
        "sydney",
        **small_sydney(seed=9, peak_request_rate_per_cache=0.0, base_update_rate=0.0),
    ),
    Scenario(
        "sydney-no-flash-no-live-share",
        "sydney",
        **small_sydney(seed=10, num_flash_crowds=0, live_update_share=0.0, num_epochs=1),
    ),
    Scenario(
        "sydney-thinning-tie-and-last-ulp",
        "sydney",
        prepare=script_edges,
        **small_sydney(
            seed=11,
            num_caches=1,
            peak_request_rate_per_cache=8.0,
            base_update_rate=8.0,
            duration_minutes=1.0,
            diurnal_period_minutes=1.0,
            num_epochs=3,
            num_flash_crowds=0,
            live_update_share=0.0,
        ),
    ),
    Scenario("synthetic-defaults", "synthetic", **small_synthetic(seed=1)),
    Scenario("synthetic-one-cache", "synthetic", **small_synthetic(seed=2, num_caches=1)),
    Scenario("synthetic-33-caches", "synthetic", **small_synthetic(seed=3, num_caches=33)),
    Scenario(
        "synthetic-alpha-updates",
        "synthetic",
        **small_synthetic(seed=5, alpha_requests=1.2),
    ),
    Scenario(
        "synthetic-zero-rates",
        "synthetic",
        **small_synthetic(seed=6, request_rate_per_cache=0.0, update_rate=0.0),
    ),
]


def snapshot(
    gen: Any, stream: Iterator[TraceRecord], prefix: Optional[int]
) -> Tuple[List[str], Dict[str, Any]]:
    """The first ``prefix`` records, bit for bit, and every stream's state after them."""
    records = [repr(record) for record in itertools.islice(stream, prefix)]
    return records, {name: rng.getstate() for name, rng in gen._streams._streams.items()}


def torn(
    scenario: Scenario, classes: Classes = REAL, prefixes: Sequence[Optional[int]] = PREFIXES
) -> List[str]:
    """Where the generator under ``classes`` departs from the book (empty: nowhere)."""
    tears = []
    for stream, by_the_book in BY_THE_BOOK[scenario.kind].items():
        for prefix in prefixes:
            oracle = scenario.build(REAL)
            want = snapshot(oracle, by_the_book(oracle), prefix)
            subject = scenario.build(classes)
            try:
                got = snapshot(subject, getattr(subject, stream)(), prefix)
            except Exception as exc:  # a mutant may also die (IndexError off the epoch maps)
                got = ([repr(exc)], {})
            if got[0] != want[0]:
                tears.append(f"{scenario.name}.{stream}[:{prefix}]: records differ")
            elif got[1] != want[1]:
                names = sorted(n for n in want[1] if got[1].get(n) != want[1][n])
                tears.append(f"{scenario.name}.{stream}[:{prefix}]: stream states differ: {names}")
    return tears


class TestStreamsMatchTheBook:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=repr)
    def test_records_and_stream_states(self, scenario):
        assert torn(scenario) == []

    def test_scenarios_are_long_enough_for_the_prefixes(self):
        """Most scenarios run past the longest prefix (else it compares whole streams twice)."""
        long_enough = [
            s.name for s in SCENARIOS if len(list(s.build(REAL).requests())) > max(PREFIXES[1:])
        ]
        assert len(long_enough) >= 12, long_enough

    @pytest.mark.parametrize("kind", sorted(REAL))
    def test_zero_rates_touch_no_rng(self, kind):
        scenario = next(s for s in SCENARIOS if s.name == f"{kind}-zero-rates")
        gen = scenario.build(REAL)
        assert list(gen.requests()) == [] and list(gen.updates()) == []
        drawn = [name for name in gen._streams._streams if "arrivals" in name]
        assert sorted(drawn) == ["request-arrivals", "update-arrivals"]
        for name in drawn:
            fresh = random.Random(derive_seed(gen.config.seed, name))
            assert gen._streams.get(name).getstate() == fresh.getstate()

    def test_the_scripted_scenario_hits_both_edges(self):
        """One request kept on a thinning tie, one on the last float with the clamped epoch."""
        scenario = next(s for s in SCENARIOS if s.prepare is script_edges)
        gen = scenario.build(REAL)
        times = [record.time for record in gen.requests()]
        assert times == last_ulp_arrivals(8.0, 1.0)[1]
        assert gen.epoch_at(times[1]) == gen.config.num_epochs - 1

    def test_poisson_arrivals_is_expovariate(self):
        got = list(poisson_arrivals(7.5, 40.0, random.Random(5)))
        assert got == list(arrivals_by_the_book(7.5, 40.0, random.Random(5))) and len(got) > 200


@st.composite
def sydney_configs(draw) -> Dict[str, Any]:
    num_documents = draw(st.integers(4, 60))
    duration = draw(st.sampled_from([1.0, 7.5, 40.0]))
    flash_times = draw(
        st.none() | st.lists(st.floats(0.0, 0.999), max_size=4).map(
            lambda shares: tuple(share * duration for share in shares)
        )
    )
    return dict(
        num_documents=num_documents,
        num_caches=draw(st.integers(1, 9)),
        peak_request_rate_per_cache=draw(st.sampled_from([0.0, 0.5, 3.0, 12.0])),
        base_update_rate=draw(st.sampled_from([0.0, 1.0, 9.0])),
        alpha=draw(st.sampled_from([0.0, 0.8, 1.3])),
        duration_minutes=duration,
        seed=draw(st.integers(0, 2**32)),
        num_epochs=draw(st.integers(1, 5)),
        drift_pool=draw(st.integers(0, num_documents)),
        diurnal_floor=draw(st.sampled_from([0.05, 0.25, 1.0])),
        diurnal_period_minutes=draw(st.sampled_from([duration, 3.0, 1440.0])),
        num_flash_crowds=draw(st.integers(0, 3)),
        flash_duration_minutes=draw(st.sampled_from([0.25, 5.0, 100.0])),
        flash_multiplier=draw(st.sampled_from([1.0, 8.0, 1e6])),
        flash_rate_boost=draw(st.sampled_from([1.0, 1.5, 4.0])),
        flash_times=flash_times,
        live_fraction=draw(st.sampled_from([0.02, 0.5, 1.0])),
        live_update_share=draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
    )


@st.composite
def synthetic_configs(draw) -> Dict[str, Any]:
    return dict(
        num_documents=draw(st.integers(1, 60)),
        num_caches=draw(st.integers(1, 9)),
        request_rate_per_cache=draw(st.sampled_from([0.0, 0.5, 12.0])),
        update_rate=draw(st.sampled_from([0.0, 1.0, 9.0])),
        alpha_requests=draw(st.sampled_from([0.0, 0.9, 1.3])),
        duration_minutes=draw(st.sampled_from([1.0, 12.0])),
        seed=draw(st.integers(0, 2**32)),
    )


class TestSmallConfigsProperty:
    @settings(max_examples=60, deadline=None)
    @given(config=sydney_configs())
    def test_sydney(self, config):
        assert torn(Scenario("sydney-property", "sydney", **config), prefixes=(None, 3)) == []

    @settings(max_examples=60, deadline=None)
    @given(config=synthetic_configs())
    def test_synthetic(self, config):
        scenario = Scenario("synthetic-property", "synthetic", **config)
        assert torn(scenario, prefixes=(None, 3)) == []


# ----------------------------------------------------------------------
# The merge
# ----------------------------------------------------------------------
class Pulled:
    """An iterator that counts how often it was asked for a record."""

    def __init__(self, records: Iterable[TraceRecord]) -> None:
        self._records = iter(records)
        self.asked = 0

    def __iter__(self) -> "Pulled":
        return self

    def __next__(self) -> TraceRecord:
        self.asked += 1
        return next(self._records)


def merged_with_pulls(
    merge: Callable[..., Iterator[TraceRecord]],
    request_times: Sequence[float],
    update_times: Sequence[float],
) -> List[Tuple[TraceRecord, int, int]]:
    """Each merged record with how far both inputs had been read when it came out.

    Serial numbers in ``cache_id``/``doc_id`` tell equal-time records apart.
    """
    requests = Pulled(RequestRecord(t, i, i) for i, t in enumerate(sorted(request_times)))
    updates = Pulled(UpdateRecord(t, i) for i, t in enumerate(sorted(update_times)))
    return [(record, requests.asked, updates.asked) for record in merge(requests, updates)]


MERGE_CASES = [
    ([1.0, 1.0, 2.0, 3.0, 3.0], [1.0, 3.0, 3.0, 4.0]),  # ties within and across streams
    ([0.0, 0.0], [0.0, 0.0]),
    ([5.0, 6.0], [1.0, 2.0]),
    ([1.0, 2.0], [5.0, 6.0]),
    ([1.0, 2.0, 2.0], []),
    ([], [1.0, 2.0, 2.0]),
    ([], []),
]


def merge_torn(merge: Callable[..., Iterator[TraceRecord]] = merge_streams) -> List[int]:
    return [
        index
        for index, case in enumerate(MERGE_CASES)
        if merged_with_pulls(merge, *case) != merged_with_pulls(merge_by_the_book, *case)
    ]


class TestMergeMatchesHeapqMerge:
    def test_fixed_cases(self):
        assert merge_torn() == []

    def test_updates_win_ties(self):
        merged = list(merge_streams([RequestRecord(1.0, 0, 0)], [UpdateRecord(1.0, 0)]))
        assert [type(record) for record in merged] == [UpdateRecord, RequestRecord]

    @settings(max_examples=200, deadline=None)
    @given(
        request_times=st.lists(st.integers(0, 6).map(float), max_size=12),
        update_times=st.lists(st.integers(0, 6).map(float), max_size=12),
    )
    def test_order_and_laziness(self, request_times, update_times):
        got = merged_with_pulls(merge_streams, request_times, update_times)
        assert got == merged_with_pulls(merge_by_the_book, request_times, update_times)

    def test_generated_streams(self):
        gen, oracle = SCENARIOS[0].build(REAL), SCENARIOS[0].build(REAL)
        book = merge_by_the_book(
            sydney_requests_by_the_book(oracle), sydney_updates_by_the_book(oracle)
        )
        got = snapshot(gen, merge_streams(gen.requests(), gen.updates()), 2_000)
        assert got == snapshot(oracle, book, 2_000)


# ----------------------------------------------------------------------
# Removed seams: the net has to notice each
# ----------------------------------------------------------------------
def recompiled(module: Any, name: str, fragment: str, replacement: str) -> Any:
    """``module.name`` recompiled with one source fragment replaced."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(fragment) >= 1, f"fragment not found in {name}: {fragment!r}"
    namespace = dict(vars(module))
    exec(source.replace(fragment, replacement), namespace)
    return namespace[name]


REJECTION_LOOP = (
    "cache_id = cache_bits(bits)  # cache_rng.randrange(num_caches)\n"
    "                while cache_id >= num_caches:\n"
    "                    cache_id = cache_bits(bits)\n"
)

#: name -> (module, recompiled name, fragment, replacement).
MUTANTS = {
    "thinning_drops_the_tie": (
        sydney_module,
        "SydneyTraceGenerator",
        "if thin() <= envelope / volume:",
        "if thin() < envelope / volume:",
    ),
    "flash_redirect_drawn_outside_a_window": (
        sydney_module,
        "SydneyTraceGenerator",
        "if in_flash and flash() < redirect:",
        "if flash() < redirect and in_flash:",
    ),
    "modulo_in_place_of_the_rejection_loop": (
        sydney_module,
        "SydneyTraceGenerator",
        REJECTION_LOOP,
        "cache_id = cache_bits(bits) % num_caches\n",
    ),
    "epoch_clamp_dropped": (
        sydney_module,
        "SydneyTraceGenerator",
        "                if epoch > last_epoch:\n                    epoch = last_epoch\n",
        "",
    ),
    "requests_win_a_time_tie": (
        trace_module,
        "merge_streams",
        "request.time < update.time",
        "request.time <= update.time",
    ),
}


def all_tears(module: Any, name: str, subject: Any) -> List[Any]:
    if name == "merge_streams":
        return merge_torn(subject)
    kind = "sydney" if module is sydney_module else "synthetic"
    classes = {**REAL, kind: (REAL[kind][0], subject)}
    return [tear for s in SCENARIOS if s.kind == kind for tear in torn(s, classes)]


class TestRemovedSeams:
    @pytest.mark.parametrize(
        "module, name",
        [
            (sydney_module, "SydneyTraceGenerator"),
            (generator_module, "SyntheticTraceGenerator"),
            (trace_module, "merge_streams"),
        ],
        ids=["sydney", "synthetic", "merge"],
    )
    def test_unmutated_recompile_passes(self, module, name):
        """The recompile itself changes nothing (the mutants do)."""
        subject = recompiled(module, name, "yield ", "yield ")
        assert subject is not getattr(module, name)
        assert all_tears(module, name, subject) == []

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_mutant_tears_the_net(self, mutant):
        module, name, fragment, replacement = MUTANTS[mutant]
        subject = recompiled(module, name, fragment, replacement)
        assert all_tears(module, name, subject), f"no scenario noticed the {mutant} mutant"


# ----------------------------------------------------------------------
# The seed-exact cost of one generated record
# ----------------------------------------------------------------------
COUNTED_RECORDS = 20_000


def frames_per_record(stream: Iterator[TraceRecord]) -> float:
    """Python ``call`` events per record, over 20 000 records of a running stream.

    The first record is drawn before counting: building the sampler and the
    flash spans is set-up, paid once. ``islice`` and ``deque`` are C, so what
    is counted is the stream itself and whatever it calls. The collector
    stays off meanwhile — a ``gc.callbacks`` hook (hypothesis installs one)
    is a Python frame too.
    """
    next(stream)
    calls = 0

    def hook(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    previous, collecting = sys.getprofile(), gc.isenabled()
    gc.disable()
    sys.setprofile(hook)
    try:
        collections.deque(itertools.islice(stream, COUNTED_RECORDS), maxlen=0)
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    next(stream)  # not exhausted: all 20 000 were drawn
    return calls / COUNTED_RECORDS


class TestFramesPerRecord:
    """Wall-clock moves by tens of percent on a shared host; this count does not.

    A generated record costs three Python frames — the generator's own
    resume, the dataclass ``__init__`` and its ``__post_init__`` — where it
    cost 21.44 (Sydney requests), 7.0 (Sydney updates), 8.0 and 6.0
    (synthetic) when every draw went through a helper; merging costs one
    where ``heapq.merge`` plus its key function cost two.
    """

    def sydney(self, **overrides):
        return SydneyTraceGenerator(SydneyConfig(**{**FIGURE_SIM, **overrides}))

    def synthetic(self):
        return SyntheticTraceGenerator(WorkloadConfig(num_documents=25_000, num_caches=10, seed=3))

    def test_sydney_requests(self):
        assert frames_per_record(self.sydney().requests()) <= 3.0

    def test_sydney_requests_inside_a_flash_window(self):
        """The redirect probability is per window, not a call per record inside it."""
        gen = self.sydney(flash_times=(0.0,), flash_duration_minutes=280.0, flash_rate_boost=2.0)
        assert frames_per_record(gen.requests()) <= 3.0

    def test_sydney_updates(self):
        assert frames_per_record(self.sydney().updates()) <= 3.0

    def test_synthetic_requests(self):
        assert frames_per_record(self.synthetic().requests()) <= 3.0

    def test_synthetic_updates(self):
        assert frames_per_record(self.synthetic().updates()) <= 3.0

    def test_merge_alone(self):
        gen = self.sydney()
        requests = list(itertools.islice(gen.requests(), COUNTED_RECORDS))
        updates = list(itertools.islice(gen.updates(), 6_500))
        assert requests[-1].time < updates[-1].time  # the counted span interleaves both
        assert frames_per_record(merge_streams(requests, updates)) <= 1.0
