"""Sydney-like trace synthesis.

The paper's second dataset is a 24-hour access/update trace captured from the
IBM 2000 Sydney Olympic Games web site (~52 000 unique documents). That trace
is proprietary and unavailable, so this module synthesizes a trace with the
structural properties that drive the paper's results:

* **Heavy-tailed popularity** — Zipf-like with a moderately high parameter
  (sporting-event sites are strongly skewed toward a few hot pages).
* **Diurnal envelope** — the request rate follows a day/night cycle.
* **Popularity drift** — the hot set rotates across *epochs* (event sessions):
  the medal table is hot during one session, a match page during another.
  This drift is exactly what static hashing cannot adapt to and the dynamic
  sub-range determination can (Figure 4).
* **Flash crowds** — short multiplicative bursts on a single document.
* **Concentrated updates** — a small "live" subset (scoreboards, medal
  tallies) receives the bulk of the update stream.

The defaults are scaled down (documents, duration) so the experiments run on
a laptop; the shape-level conclusions are insensitive to the scale, which is
why the figures reproduce.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import starmap
from math import cos, log
from typing import Iterator, List, Optional, Tuple

from repro.simulation.rng import RandomStreams
from repro.workload.trace import RequestRecord, RequestRow, Trace, UpdateRecord, UpdateRow
from repro.workload.zipf import ZipfSampler, permuted_ranks


@dataclass
class SydneyConfig:
    """Parameters of the Sydney-like synthetic trace.

    Defaults approximate the published trace at reduced scale. Rates are per
    simulated minute.
    """

    num_documents: int = 52_000
    num_caches: int = 10
    peak_request_rate_per_cache: float = 300.0
    base_update_rate: float = 195.0
    alpha: float = 0.8
    duration_minutes: float = 1440.0  # 24 hours
    seed: int = 0
    # Popularity drift: the top `drift_pool` ranks are re-shuffled every epoch.
    num_epochs: int = 6
    drift_pool: int = 2_000
    # Diurnal envelope: rate(t) = peak * (floor + (1-floor)/2 * (1 - cos ...)).
    diurnal_floor: float = 0.25
    # Length of one day/night cycle. 1440 for real time; scaled-down traces
    # set this to their duration so they still sample a full cycle instead
    # of only the midnight trough.
    diurnal_period_minutes: float = 1440.0
    # Flash crowds.
    num_flash_crowds: int = 4
    flash_duration_minutes: float = 20.0
    flash_multiplier: float = 8.0
    # Flash *volume*: by default a flash crowd redirects traffic to the hot
    # page without changing the total rate (the thinned-Poisson envelope is
    # untouched). A boost > 1 additionally multiplies the cloud-wide
    # request rate inside every flash window — the "everyone opens the
    # site at once" regime elastic sizing exists for. 1.0 leaves every RNG
    # stream byte-identical to the legacy generator.
    flash_rate_boost: float = 1.0
    # Scripted flash-crowd start times (minutes). ``None`` places the
    # ``num_flash_crowds`` windows randomly; a tuple pins each window's
    # start so experiments can align flash crowds across arms and seeds.
    flash_times: Optional[Tuple[float, ...]] = None
    # Updates: `live_fraction` of documents receive `live_update_share` of updates.
    live_fraction: float = 0.02
    live_update_share: float = 0.9

    def __post_init__(self) -> None:
        if self.num_documents <= 0:
            raise ValueError("num_documents must be positive")
        if self.num_caches <= 0:
            raise ValueError("num_caches must be positive")
        for name in ("peak_request_rate_per_cache", "base_update_rate", "alpha"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.duration_minutes <= 0:
            raise ValueError("duration_minutes must be positive")
        if not 0 < self.diurnal_floor <= 1:
            raise ValueError("diurnal_floor must be in (0, 1]")
        if self.diurnal_period_minutes <= 0:
            raise ValueError("diurnal_period_minutes must be positive")
        if self.num_epochs <= 0:
            raise ValueError("num_epochs must be positive")
        if not 0 < self.live_fraction <= 1:
            raise ValueError("live_fraction must be in (0, 1]")
        if not 0 <= self.live_update_share <= 1:
            raise ValueError("live_update_share must be in [0, 1]")
        if self.drift_pool > self.num_documents:
            raise ValueError("drift_pool cannot exceed num_documents")
        if self.num_flash_crowds < 0:
            raise ValueError("num_flash_crowds must be >= 0")
        if self.flash_multiplier < 1.0:
            raise ValueError("flash_multiplier must be >= 1.0")
        if self.flash_rate_boost < 1.0:
            raise ValueError("flash_rate_boost must be >= 1.0")
        if self.flash_times is not None:
            for start in self.flash_times:
                if not 0.0 <= start < self.duration_minutes:
                    raise ValueError(
                        f"flash start {start} outside [0, duration_minutes)"
                    )


class SydneyTraceGenerator:
    """Synthesizes the Sydney-like trace described in :class:`SydneyConfig`."""

    def __init__(self, config: SydneyConfig) -> None:
        self.config = config
        self._streams = RandomStreams(config.seed)
        base_rng = self._streams.get("popularity-permutation")
        base_perm = permuted_ranks(config.num_documents, base_rng)
        self._epoch_maps = self._build_epoch_maps(base_perm)
        self._flash_events = self._plan_flash_crowds()
        live_rng = self._streams.get("live-set")
        live_count = max(1, int(config.live_fraction * config.num_documents))
        # The live (frequently updated) documents are drawn from the hot end of
        # the base popularity order: scoreboards are both hot and volatile.
        hot_pool = base_perm[: max(live_count * 4, live_count)]
        self._live_docs: List[int] = live_rng.sample(hot_pool, live_count)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def _build_epoch_maps(self, base_perm: List[int]) -> List[List[int]]:
        """Per-epoch rank->doc maps: the hot `drift_pool` prefix is reshuffled."""
        cfg = self.config
        rng = self._streams.get("epoch-drift")
        maps: List[List[int]] = []
        for _ in range(cfg.num_epochs):
            epoch_map = list(base_perm)
            head = epoch_map[: cfg.drift_pool]
            rng.shuffle(head)
            epoch_map[: cfg.drift_pool] = head
            maps.append(epoch_map)
        return maps

    def _plan_flash_crowds(self) -> List[Tuple[float, float, int]]:
        """Plan (start, end, rank) flash-crowd windows over the trace."""
        cfg = self.config
        rng = self._streams.get("flash-crowds")
        # Flash crowds hit a mid-popularity page (a suddenly newsworthy one).
        lo = min(100, max(1, cfg.num_documents // 10))
        hi = max(lo + 1, min(cfg.drift_pool, cfg.num_documents))
        events = []
        if cfg.flash_times is not None:
            for start in cfg.flash_times:
                rank = rng.randrange(lo, hi)
                events.append((start, start + cfg.flash_duration_minutes, rank))
            return sorted(events)
        for _ in range(cfg.num_flash_crowds):
            start = rng.uniform(0.0, max(cfg.duration_minutes - cfg.flash_duration_minutes, 0.0))
            rank = rng.randrange(lo, hi)
            events.append((start, start + cfg.flash_duration_minutes, rank))
        return sorted(events)

    # ------------------------------------------------------------------
    # Rate envelope
    # ------------------------------------------------------------------
    def epoch_at(self, t: float) -> int:
        """Index of the popularity epoch containing time ``t``."""
        cfg = self.config
        epoch_len = cfg.duration_minutes / cfg.num_epochs
        return min(int(t / epoch_len), cfg.num_epochs - 1)

    def diurnal_factor(self, t: float) -> float:
        """Request-rate multiplier in [floor, 1], one cycle per diurnal period."""
        cfg = self.config
        phase = 2.0 * math.pi * (t / cfg.diurnal_period_minutes)
        # Cosine day/night cycle, trough at t=0 (midnight), peak at noon.
        wave = 0.5 * (1.0 - math.cos(phase))
        return cfg.diurnal_floor + (1.0 - cfg.diurnal_floor) * wave

    # ------------------------------------------------------------------
    # Streams: one loop each over bound methods, the helpers spelled out in
    # place draw for draw (DESIGN.md §3.3); a trailing comment names the call.
    # A loop yields bare rows: the record streams wrap them, and build_trace
    # stores them as columns without ever making a record.
    # ------------------------------------------------------------------
    def requests(self) -> Iterator[RequestRecord]:
        """Lazy stream of request records (non-homogeneous Poisson, thinned)."""
        return starmap(RequestRecord, self._request_rows())

    def updates(self) -> Iterator[UpdateRecord]:
        """Lazy stream of update records concentrated on the live subset."""
        return starmap(UpdateRecord, self._update_rows())

    def _request_rows(self) -> Iterator[RequestRow]:
        cfg = self.config
        # Candidates arrive at the peak rate and are thinned to the diurnal
        # envelope. A volume boost B > 1 generates them at B times that rate and
        # scales the envelope by B inside flash windows (capped at certainty).
        volume = cfg.flash_rate_boost
        rate = cfg.num_caches * cfg.peak_request_rate_per_cache * volume
        arrive = self._streams.get("request-arrivals").random
        thin = self._streams.get("request-thinning").random
        doc_rng = self._streams.get("request-docs")
        cache_bits = self._streams.get("request-caches").getrandbits
        flash = self._streams.get("flash-redirect").random
        if rate <= 0:
            return
        sampler = ZipfSampler(cfg.num_documents, cfg.alpha, doc_rng)
        pick, cdf, total = doc_rng.random, sampler.cdf, sampler.total
        duration, period = cfg.duration_minutes, cfg.diurnal_period_minutes
        floor, swing, tau = cfg.diurnal_floor, 1.0 - cfg.diurnal_floor, 2.0 * math.pi
        epoch_maps, last_epoch = self._epoch_maps, cfg.num_epochs - 1
        epoch_len = duration / cfg.num_epochs
        num_caches, bits = cfg.num_caches, cfg.num_caches.bit_length()
        # Inside a window a request flips to the flash page with a probability
        # that multiplies that page's request rate by ~flash_multiplier.
        gain = cfg.flash_multiplier - 1.0
        windows = iter(
            [(a, b, r, min(gain * sampler.probability(r), 0.5)) for a, b, r in self._flash_events]
            + [(math.inf, math.inf, 0, 0.0)]  # never starts, never ends
        )
        start, end, flash_rank, redirect = next(windows)
        t = -log(1.0 - arrive()) / rate  # arrival_rng.expovariate(rate)
        while t < duration:
            # The windows are sorted by start and t only grows: the first one not
            # yet over is the only one that can be the first, in order, to hold t.
            while t >= end:
                start, end, flash_rank, redirect = next(windows)
            in_flash = t >= start
            envelope = floor + swing * (0.5 * (1.0 - cos(tau * (t / period))))  # diurnal_factor(t)
            if in_flash and volume > 1.0:
                envelope = min(volume, envelope * volume)
            if thin() <= envelope / volume:
                rank = bisect_left(cdf, pick() * total)  # sampler.sample()
                if in_flash and flash() < redirect:
                    rank = flash_rank
                epoch = int(t / epoch_len)  # self.epoch_at(t)
                if epoch > last_epoch:
                    epoch = last_epoch
                cache_id = cache_bits(bits)  # cache_rng.randrange(num_caches)
                while cache_id >= num_caches:
                    cache_id = cache_bits(bits)
                yield t, cache_id, epoch_maps[epoch][rank]
            t += -log(1.0 - arrive()) / rate

    def _update_rows(self) -> Iterator[UpdateRow]:
        cfg = self.config
        rate = cfg.base_update_rate
        arrive = self._streams.get("update-arrivals").random
        pick_rng = self._streams.get("update-docs")
        if rate <= 0:
            return
        sampler = ZipfSampler(cfg.num_documents, cfg.alpha, pick_rng)
        pick, pick_bits = pick_rng.random, pick_rng.getrandbits
        cdf, total = sampler.cdf, sampler.total
        duration, share = cfg.duration_minutes, cfg.live_update_share
        epoch_maps, last_epoch = self._epoch_maps, cfg.num_epochs - 1
        epoch_len = duration / cfg.num_epochs
        live = self._live_docs
        num_live, bits = len(live), len(live).bit_length()
        t = -log(1.0 - arrive()) / rate  # arrival_rng.expovariate(rate)
        while t < duration:
            if pick() < share:
                index = pick_bits(bits)  # pick_rng.randrange(num_live)
                while index >= num_live:
                    index = pick_bits(bits)
                doc_id = live[index]
            else:  # the rare branch: self.epoch_at(t), sampler.sample()
                epoch_map = epoch_maps[min(int(t / epoch_len), last_epoch)]
                doc_id = epoch_map[bisect_left(cdf, pick() * total)]
            yield t, doc_id
            t += -log(1.0 - arrive()) / rate

    def build_trace(self) -> Trace:
        """Materialize the full trace, straight from the rows into columns."""
        return Trace(self._request_rows(), self._update_rows())

    @property
    def live_documents(self) -> List[int]:
        """Document ids forming the frequently updated "live" subset."""
        return list(self._live_docs)

    @property
    def flash_windows(self) -> List[Tuple[float, float]]:
        """The planned flash-crowd ``(start, end)`` windows, time-sorted."""
        return [(start, end) for start, end, _ in self._flash_events]

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"SydneyTraceGenerator(docs={cfg.num_documents}, caches={cfg.num_caches}, "
            f"duration={cfg.duration_minutes}min, epochs={cfg.num_epochs})"
        )
