"""Periodic metrics collection from a running cloud.

The figure experiments only need end-of-run aggregates, but time-resolved
views (how fast does the dynamic scheme react to a flash crowd? how does
the hit rate climb during warm-up?) need periodic sampling. The
:class:`CloudMonitor` hooks a :class:`~repro.simulation.engine.Simulator`
and snapshots a cloud's key statistics every ``period``, producing
:class:`~repro.metrics.timeseries.TimeSeries` per metric.

Sampled metrics (per window, not cumulative):

* ``beacon_cov`` / ``beacon_peak_to_mean`` — imbalance of the beacon load
  accrued *within* the window.
* ``cloud_hit_rate`` — fraction of the window's requests served in-cloud.
* ``network_mb`` — MB transferred during the window.
* ``docs_stored`` — resident documents across all caches (gauge).

When the monitored cloud has a fault injector attached, four windowed
fault series are added: ``retries``, ``timeouts``, ``messages_dropped``,
and ``stale_refreshes`` — the time-resolved view of how hard the retry and
repair machinery is working.

When an anti-entropy process is attached, three more series track the
divergence it exists to bound: ``stale_copies`` (gauge: resident copies
older than the origin's version), ``stale_age_mean`` (gauge: mean minutes
since those documents' last origin update — the staleness *age* the
repair period bounds), and ``ae_repairs`` (windowed repairs performed).

When a telemetry registry (``repro.observe``) is attached, two windowed
request-latency series are added: ``request_p50_ms`` and
``request_p99_ms`` — the time-resolved percentiles Carlsson & Eager argue
end-of-run means cannot substitute for. Windows with no requests record
0.0 so the series stays aligned with the sampling grid.

When an overload controller (``repro.core.overload``) is attached, three
windowed series track graceful degradation under flash crowds — the
icarus-style ``AVERAGE_QUEUE_SIZE`` / ``PERCENTAGE_OF_REJECTION``
statistics, time-resolved: ``avg_queue_depth`` (mean queue depth at
message arrivals within the window), ``rejection_rate`` (fraction of the
window's client arrivals turned away), and ``shed_rate`` (cooperative
work items shed or deferred per client arrival).

When an elastic controller (``repro.core.elastic``) is attached, four more
series track the autoscaler: ``cloud_size`` (gauge: live caches),
``scale_out_events`` / ``scale_in_events`` (windowed membership changes),
and ``drain_bytes`` (windowed scale-in handoff traffic).

When a work profile (``repro.observe.profile``) is attached, two windowed
series track the holder walk: ``holder_walk_mean`` (mean holders probed
per answered lookup — 0 for a lookup that trusted its entry's stamp) and
``holder_verify_units`` (total holder-verification work in the window).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.edgecache.stats import CacheStats
from repro.metrics.loadbalance import coefficient_of_variation, peak_to_mean
from repro.metrics.timeseries import TimeSeries
from repro.simulation.engine import Simulator
from repro.simulation.events import EventPriority
from repro.simulation.process import PeriodicProcess

_METRICS = (
    "beacon_cov",
    "beacon_peak_to_mean",
    "cloud_hit_rate",
    "network_mb",
    "docs_stored",
)

#: Extra windowed series sampled only when the cloud has faults attached.
_FAULT_METRICS = (
    "retries",
    "timeouts",
    "messages_dropped",
    "stale_refreshes",
)

#: Extra series sampled only when an anti-entropy process is attached.
_AE_METRICS = (
    "stale_copies",
    "stale_age_mean",
    "ae_repairs",
)

#: Extra series sampled only when a telemetry registry is attached.
_LATENCY_METRICS = (
    "request_p50_ms",
    "request_p99_ms",
)
_LATENCY_QUANTILES = (0.50, 0.99)

#: Extra series sampled only when an overload controller is attached.
_OVERLOAD_METRICS = (
    "avg_queue_depth",
    "rejection_rate",
    "shed_rate",
)

#: Extra series sampled only when a work profile
#: (``repro.observe.profile``) is attached: the time-resolved view of the
#: ROADMAP holder-walk item — mean holders verified per answered lookup,
#: and total holder-verification work performed in the window.
_PROFILE_METRICS = (
    "holder_walk_mean",
    "holder_verify_units",
)

#: Extra series sampled only when an elastic controller is attached:
#: ``cloud_size`` (gauge: live caches), windowed scale event counts, and
#: windowed drain traffic — the time-resolved view of the autoscaler.
_ELASTIC_METRICS = (
    "cloud_size",
    "scale_out_events",
    "scale_in_events",
    "drain_bytes",
)


class CloudMonitor:
    """Samples windowed cloud statistics on a fixed period.

    Which planes are tracked is decided at construction, and the monitor
    holds the tracked objects themselves: detaching a plane from the cloud
    mid-run freezes its series (the detached object keeps its state) instead
    of breaking the sampler.
    """

    def __init__(self, cloud: Any, simulator: Simulator, period: float) -> None:
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        self.cloud = cloud
        self.period = period
        names = list(_METRICS)
        self._faults = getattr(cloud, "faults", None)
        if self._faults is not None:
            names.extend(_FAULT_METRICS)
        self._track_ae = getattr(cloud, "anti_entropy", None) is not None
        if self._track_ae:
            names.extend(_AE_METRICS)
        self._telemetry = getattr(cloud, "telemetry", None)
        if self._telemetry is not None:
            names.extend(_LATENCY_METRICS)
        self._overload = getattr(cloud, "overload", None)
        if self._overload is not None:
            names.extend(_OVERLOAD_METRICS)
        self._track_elastic = getattr(cloud, "elastic", None) is not None
        if self._track_elastic:
            names.extend(_ELASTIC_METRICS)
        self._profile = getattr(cloud, "profile", None)
        if self._profile is not None:
            names.extend(_PROFILE_METRICS)
        self.series: Dict[str, TimeSeries] = {
            name: TimeSeries(name) for name in names
        }
        self._last_loads: Dict[int, float] = {}
        self._last_bytes = 0
        self._last_stats = CacheStats()
        self._last_faults: Dict[str, float] = {}
        self._last_ae_repairs = 0.0
        self._last_overload: Dict[str, float] = {}
        self._last_elastic: Dict[str, float] = {}
        self._last_profile: Dict[str, float] = {}
        self._window_start = 0.0
        self._simulator = simulator
        self._process = PeriodicProcess(
            simulator,
            period,
            self._sample,
            priority=EventPriority.METRICS,
            label="cloud-monitor",
        )

    def start(self, first_at: Optional[float] = None) -> None:
        """Arm the monitor (first sample at ``first_at`` or now+period)."""
        self._baseline()
        self._process.start(first_at=first_at)

    def stop(self) -> None:
        """Disarm the monitor."""
        self._process.stop()

    @property
    def samples(self) -> int:
        """Number of windows sampled so far."""
        return len(self.series["network_mb"])

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _baseline(self) -> None:
        self._last_loads = dict(self.cloud.beacon_loads())
        self._last_bytes = self.cloud.transport.meter.total_bytes
        self._last_stats = self._aggregate()
        if self._faults is not None:
            self._last_faults = self._fault_snapshot()
        if self._track_ae:
            self._last_ae_repairs = float(self.cloud.anti_entropy.stats.repairs)
        if self._overload is not None:
            self._last_overload = self._overload_snapshot()
        if self._track_elastic:
            self._last_elastic = self._elastic_snapshot()
        if self._profile is not None:
            self._last_profile = self._profile_snapshot()
        if self._telemetry is not None:
            self._window_start = self._simulator.now

    def _fault_snapshot(self) -> Dict[str, float]:
        cloud = self.cloud
        return {
            "retries": float(cloud.retries),
            "timeouts": float(cloud.timeouts),
            "messages_dropped": float(self._faults.stats.dropped),
            "stale_refreshes": float(cloud.stale_refreshes),
        }

    def _overload_snapshot(self) -> Dict[str, float]:
        stats = self._overload.stats
        return {
            "depth_sum": float(stats.queue_depth_sum),
            "depth_samples": float(stats.queue_depth_samples),
            "requests_admitted": float(stats.requests_admitted),
            "requests_rejected": float(stats.requests_rejected),
            "shed_total": float(stats.shed_total),
        }

    def _profile_snapshot(self) -> Dict[str, float]:
        profile = self._profile
        return {
            "verify_walks": float(profile.counts["holder_verify"]),
            "verify_units": float(profile.units["holder_verify"]),
        }

    def _elastic_snapshot(self) -> Dict[str, float]:
        stats = self.cloud.elastic.stats
        return {
            "scale_out_events": float(stats.scale_out_events),
            "scale_in_events": float(stats.scale_in_events),
            "drain_bytes": float(stats.drain_bytes),
        }

    def _aggregate(self) -> CacheStats:
        total = CacheStats()
        for cache in self.cloud.caches:
            total.merge(cache.stats)
        return total

    def _sample(self, now: float) -> None:
        loads = self.cloud.beacon_loads()
        deltas = [
            loads[cache_id] - self._last_loads.get(cache_id, 0.0)
            for cache_id in loads
        ]
        if any(delta > 0 for delta in deltas):
            self.series["beacon_cov"].append(now, coefficient_of_variation(deltas))
            self.series["beacon_peak_to_mean"].append(now, peak_to_mean(deltas))
        else:
            self.series["beacon_cov"].append(now, 0.0)
            self.series["beacon_peak_to_mean"].append(now, 1.0)
        self._last_loads = dict(loads)

        stats = self._aggregate()
        window_requests = stats.requests - self._last_stats.requests
        window_served = (
            stats.local_hits
            + stats.cloud_hits
            - self._last_stats.local_hits
            - self._last_stats.cloud_hits
        )
        hit_rate = window_served / window_requests if window_requests else 0.0
        self.series["cloud_hit_rate"].append(now, hit_rate)
        self._last_stats = stats

        total_bytes = self.cloud.transport.meter.total_bytes
        self.series["network_mb"].append(
            now, (total_bytes - self._last_bytes) / (1024.0 * 1024.0)
        )
        self._last_bytes = total_bytes

        resident = sum(len(cache.storage) for cache in self.cloud.caches)
        self.series["docs_stored"].append(now, float(resident))

        if self._faults is not None:
            snapshot = self._fault_snapshot()
            for name in _FAULT_METRICS:
                self.series[name].append(
                    now, snapshot[name] - self._last_faults.get(name, 0.0)
                )
            self._last_faults = snapshot

        if self._track_ae:
            stale, age_sum = self._staleness_scan(now)
            self.series["stale_copies"].append(now, float(stale))
            self.series["stale_age_mean"].append(
                now, age_sum / stale if stale else 0.0
            )
            repairs = float(self.cloud.anti_entropy.stats.repairs)
            self.series["ae_repairs"].append(now, repairs - self._last_ae_repairs)
            self._last_ae_repairs = repairs

        if self._overload is not None:
            snapshot = self._overload_snapshot()
            last = self._last_overload
            delta = {
                name: snapshot[name] - last.get(name, 0.0) for name in snapshot
            }
            samples = delta["depth_samples"]
            self.series["avg_queue_depth"].append(
                now, delta["depth_sum"] / samples if samples else 0.0
            )
            arrivals = delta["requests_admitted"] + delta["requests_rejected"]
            self.series["rejection_rate"].append(
                now, delta["requests_rejected"] / arrivals if arrivals else 0.0
            )
            self.series["shed_rate"].append(
                now, delta["shed_total"] / arrivals if arrivals else 0.0
            )
            self._last_overload = snapshot

        if self._track_elastic:
            self.series["cloud_size"].append(
                now, float(self.cloud.elastic.active_count())
            )
            snapshot = self._elastic_snapshot()
            last = self._last_elastic
            for name in ("scale_out_events", "scale_in_events", "drain_bytes"):
                self.series[name].append(
                    now, snapshot[name] - last.get(name, 0.0)
                )
            self._last_elastic = snapshot

        if self._profile is not None:
            snapshot = self._profile_snapshot()
            last = self._last_profile
            walks = snapshot["verify_walks"] - last.get("verify_walks", 0.0)
            units = snapshot["verify_units"] - last.get("verify_units", 0.0)
            self.series["holder_walk_mean"].append(
                now, units / walks if walks else 0.0
            )
            self.series["holder_verify_units"].append(now, units)
            self._last_profile = snapshot

        if self._telemetry is not None:
            # One sort of the window for both percentiles (the same
            # nearest-rank rule as ``percentile_in``); empty window -> 0.0.
            quantiles = self._telemetry.request_latencies.quantiles(
                _LATENCY_QUANTILES, self._window_start, now
            )
            for name, q in zip(_LATENCY_METRICS, _LATENCY_QUANTILES):
                self.series[name].append(now, quantiles.get(q, 0.0))
            self._window_start = now

    def _staleness_scan(self, now: float) -> Tuple[int, float]:
        """Count stale resident copies and sum their staleness ages."""
        cloud = self.cloud
        stale = 0
        age_sum = 0.0
        for cache in cloud.caches:
            if not cache.alive:
                continue
            for doc_id in cache.storage:
                copy = cache.storage.get(doc_id)
                if copy.version < cloud.origin.version_of(doc_id):
                    stale += 1
                    age_sum += max(
                        0.0, now - cloud.last_update_times.get(doc_id, 0.0)
                    )
        return stale, age_sum

    def __repr__(self) -> str:
        return f"CloudMonitor(period={self.period}, samples={self.samples})"
