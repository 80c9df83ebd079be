"""Synthetic trace generation (the paper's Zipf-0.9 dataset, generalized).

The paper's synthetic dataset has 25 000 unique documents with both accesses
and invalidations drawn from Zipf(0.9). This module generates such traces as
homogeneous Poisson processes:

* Requests arrive cloud-wide at ``num_caches * request_rate_per_cache`` per
  minute; each arrival lands on a cache drawn uniformly and targets a
  document drawn from the Zipf distribution.
* Updates arrive at ``update_rate`` per minute, targeting a document drawn
  from the same Zipf distribution (the paper draws both from one Zipf
  parameter).

Document ids are decoupled from popularity ranks by a random permutation, so
hashing schemes cannot accidentally correlate with popularity.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from math import log
from typing import Iterator, List

from repro.simulation.rng import RandomStreams
from repro.workload.trace import RequestRecord, Trace, UpdateRecord
from repro.workload.zipf import ZipfSampler, permuted_ranks


@dataclass
class WorkloadConfig:
    """Parameters of a synthetic workload.

    Rates are per simulated minute, matching the paper's "per unit time".
    ``alpha_requests`` skews updates as well as requests (the paper draws
    both from the same Zipf parameter).
    """

    num_documents: int = 25_000
    num_caches: int = 10
    request_rate_per_cache: float = 200.0
    update_rate: float = 195.0
    alpha_requests: float = 0.9
    duration_minutes: float = 120.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_documents <= 0:
            raise ValueError("num_documents must be positive")
        if self.num_caches <= 0:
            raise ValueError("num_caches must be positive")
        if self.request_rate_per_cache < 0:
            raise ValueError("request_rate_per_cache must be >= 0")
        if self.update_rate < 0:
            raise ValueError("update_rate must be >= 0")
        if self.duration_minutes <= 0:
            raise ValueError("duration_minutes must be positive")


def poisson_arrivals(
    rate_per_minute: float, duration: float, rng: random.Random
) -> Iterator[float]:
    """Lazy homogeneous Poisson arrival times in ``[0, duration)``."""
    if rate_per_minute <= 0:
        return
    t = -log(1.0 - rng.random()) / rate_per_minute  # rng.expovariate(rate_per_minute)
    while t < duration:
        yield t
        t += -log(1.0 - rng.random()) / rate_per_minute


class SyntheticTraceGenerator:
    """Generates Zipf request/update traces per a :class:`WorkloadConfig`.

    All randomness flows through named streams derived from ``config.seed``,
    so the request trace is identical across runs that differ only in, say,
    the hashing scheme under test (common random numbers).
    """

    def __init__(self, config: WorkloadConfig) -> None:
        self.config = config
        self._streams = RandomStreams(config.seed)
        perm_rng = self._streams.get("popularity-permutation")
        # rank -> doc_id for requests; an independent permutation for updates
        # would decorrelate read and write skew, but the paper draws both from
        # the same Zipf over the same documents, so one permutation is shared.
        self._rank_to_doc: List[int] = permuted_ranks(config.num_documents, perm_rng)

    # ------------------------------------------------------------------
    # Streams: one loop each over bound methods, the helpers spelled out in
    # place draw for draw (DESIGN.md §3.3); a trailing comment names the call.
    # ------------------------------------------------------------------
    def requests(self) -> Iterator[RequestRecord]:
        """Lazy time-ordered stream of request records."""
        cfg = self.config
        rate = cfg.num_caches * cfg.request_rate_per_cache
        arrive = self._streams.get("request-arrivals").random
        doc_rng = self._streams.get("request-docs")
        cache_rng = self._streams.get("request-caches")
        if rate <= 0:
            return
        sampler = ZipfSampler(cfg.num_documents, cfg.alpha_requests, doc_rng)
        pick, cdf, total = doc_rng.random, sampler.cdf, sampler.total
        rank_to_doc, duration = self._rank_to_doc, cfg.duration_minutes
        cache_bits = cache_rng.getrandbits
        num_caches, bits = cfg.num_caches, cfg.num_caches.bit_length()
        t = -log(1.0 - arrive()) / rate  # arrival_rng.expovariate(rate)
        while t < duration:
            cache_id = cache_bits(bits)  # cache_rng.randrange(num_caches)
            while cache_id >= num_caches:
                cache_id = cache_bits(bits)
            rank = bisect_left(cdf, pick() * total)  # sampler.sample()
            yield RequestRecord(t, cache_id, rank_to_doc[rank])
            t += -log(1.0 - arrive()) / rate

    def updates(self) -> Iterator[UpdateRecord]:
        """Lazy time-ordered stream of update records."""
        cfg = self.config
        rate = cfg.update_rate
        arrive = self._streams.get("update-arrivals").random
        doc_rng = self._streams.get("update-docs")
        if rate <= 0:
            return
        sampler = ZipfSampler(cfg.num_documents, cfg.alpha_requests, doc_rng)
        pick, cdf, total = doc_rng.random, sampler.cdf, sampler.total
        rank_to_doc, duration = self._rank_to_doc, cfg.duration_minutes
        t = -log(1.0 - arrive()) / rate  # arrival_rng.expovariate(rate)
        while t < duration:
            rank = bisect_left(cdf, pick() * total)  # sampler.sample()
            yield UpdateRecord(t, rank_to_doc[rank])
            t += -log(1.0 - arrive()) / rate

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def build_trace(self) -> Trace:
        """Materialize the full trace (for tests and trace files)."""
        return Trace(requests=list(self.requests()), updates=list(self.updates()))

    def doc_for_rank(self, rank: int) -> int:
        """Which document id currently holds popularity ``rank`` (0 = hottest)."""
        return self._rank_to_doc[rank]

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"SyntheticTraceGenerator(docs={cfg.num_documents}, "
            f"caches={cfg.num_caches}, alpha={cfg.alpha_requests}, "
            f"update_rate={cfg.update_rate}/min)"
        )
