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

from repro.metrics.loadbalance import coefficient_of_variation, peak_to_mean
from repro.metrics.timeseries import CounterWindow, TimeSeries
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

#: Plane (its attribute on the cloud) -> the extra series sampled only when
#: that plane is attached; the module docstring says what each one reads.
_PLANE_METRICS = {
    "faults": ("retries", "timeouts", "messages_dropped", "stale_refreshes"),
    "anti_entropy": ("stale_copies", "stale_age_mean", "ae_repairs"),
    "telemetry": ("request_p50_ms", "request_p99_ms"),
    "overload": ("avg_queue_depth", "rejection_rate", "shed_rate"),
    "elastic": ("cloud_size", "scale_out_events", "scale_in_events", "drain_bytes"),
    "profile": ("holder_walk_mean", "holder_verify_units"),
}
_LATENCY_QUANTILES = (0.50, 0.99)


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
        self._planes: Dict[str, Any] = {}
        for plane, metrics in _PLANE_METRICS.items():
            tracked = getattr(cloud, plane, None)
            if tracked is not None:
                self._planes[plane] = tracked
                names.extend(metrics)
        self.series: Dict[str, TimeSeries] = {
            name: TimeSeries(name) for name in names
        }
        self._loads: CounterWindow[int] = CounterWindow(cloud.beacon_loads)
        self._counters: CounterWindow[str] = CounterWindow(self._read_counters)
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
        self._loads.rebase()
        self._counters.rebase()
        self._window_start = self._simulator.now
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
    def _read_counters(self) -> Dict[str, float]:
        """Every cumulative counter a windowed series is made from.

        Keyed by the series' own name where the window's growth is the
        sample as is; the rest feed the ratios ``_sample`` derives.
        """
        cloud = self.cloud
        stats = cloud.aggregate_stats()
        counters: Dict[str, float] = {
            "requests": stats.requests,
            "served": stats.local_hits + stats.cloud_hits,
            "bytes": cloud.transport.meter.total_bytes,
        }
        planes = self._planes
        if "faults" in planes:
            fabric = cloud.fabric.stats
            counters["retries"] = fabric.retries
            counters["timeouts"] = fabric.timeouts
            counters["messages_dropped"] = planes["faults"].stats.dropped
            counters["stale_refreshes"] = cloud.stale_refreshes
        if "anti_entropy" in planes:
            counters["ae_repairs"] = planes["anti_entropy"].stats.repairs
        if "overload" in planes:
            counters.update(planes["overload"].stats.window_counters())
        if "elastic" in planes:
            elastic = planes["elastic"].stats
            counters["scale_out_events"] = elastic.scale_out_events
            counters["scale_in_events"] = elastic.scale_in_events
            counters["drain_bytes"] = elastic.drain_bytes
        if "profile" in planes:
            profile = planes["profile"]
            counters["holder_walks"] = profile.counts["holder_verify"]
            counters["holder_verify_units"] = profile.units["holder_verify"]
        return counters

    def _sample(self, now: float) -> None:
        series = self.series
        loads = list(self._loads.delta().values())
        if any(delta > 0 for delta in loads):
            series["beacon_cov"].append(now, coefficient_of_variation(loads))
            series["beacon_peak_to_mean"].append(now, peak_to_mean(loads))
        else:
            series["beacon_cov"].append(now, 0.0)
            series["beacon_peak_to_mean"].append(now, 1.0)

        grown = self._counters.delta()
        requests = grown["requests"]
        series["cloud_hit_rate"].append(
            now, grown["served"] / requests if requests else 0.0
        )
        series["network_mb"].append(now, grown["bytes"] / (1024.0 * 1024.0))
        resident = sum(len(cache.storage) for cache in self.cloud.caches)
        series["docs_stored"].append(now, float(resident))
        # A counter named like a series *is* that series: its growth within
        # the window (retries, ae_repairs, drain_bytes, ...).
        for name, value in grown.items():
            if name in series:
                series[name].append(now, value)

        planes = self._planes
        if "anti_entropy" in planes:
            stale, age_sum = self._staleness_scan(now)
            series["stale_copies"].append(now, float(stale))
            series["stale_age_mean"].append(now, age_sum / stale if stale else 0.0)

        if "overload" in planes:
            samples = grown["depth_samples"]
            series["avg_queue_depth"].append(
                now, grown["depth_sum"] / samples if samples else 0.0
            )
            arrivals = grown["admitted"] + grown["rejected"]
            series["rejection_rate"].append(
                now, grown["rejected"] / arrivals if arrivals else 0.0
            )
            series["shed_rate"].append(
                now, grown["shed"] / arrivals if arrivals else 0.0
            )

        if "elastic" in planes:
            series["cloud_size"].append(now, float(planes["elastic"].active_count()))

        if "profile" in planes:
            walks = grown["holder_walks"]
            series["holder_walk_mean"].append(
                now, grown["holder_verify_units"] / walks if walks else 0.0
            )

        if "telemetry" in planes:
            # One sort of the window for both percentiles (the same
            # nearest-rank rule as ``percentile_in``); empty window -> 0.0.
            quantiles = planes["telemetry"].request_latencies.quantiles(
                _LATENCY_QUANTILES, self._window_start, now
            )
            for name, q in zip(_PLANE_METRICS["telemetry"], _LATENCY_QUANTILES):
                series[name].append(now, quantiles.get(q, 0.0))
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
