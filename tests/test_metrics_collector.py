"""Unit tests for the periodic cloud monitor."""

import hashlib
import json

import pytest

from repro.core.cloud import CacheCloud
from repro.core.config import CloudConfig, PlacementScheme
from repro.experiments.runner import TraceFeeder, run_experiment
from repro.metrics.collector import CloudMonitor
from repro.simulation.engine import Simulator
from repro.workload.documents import build_corpus
from repro.workload.trace import RequestRecord, Trace, UpdateRecord


def build_cloud():
    corpus = build_corpus(40, fixed_size=1024)
    config = CloudConfig(
        num_caches=4,
        num_rings=2,
        intra_gen=100,
        cycle_length=10.0,
        placement=PlacementScheme.AD_HOC,
    )
    return CacheCloud(config, corpus)


def trace_for(duration=40.0):
    requests = [
        RequestRecord(t * 0.2, int(t) % 4, int(t * 7) % 40)
        for t in range(int(duration * 5))
    ]
    updates = [UpdateRecord(float(t) + 0.5, t % 40) for t in range(int(duration))]
    return Trace(requests=requests, updates=updates)


class TestCloudMonitor:
    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            CloudMonitor(build_cloud(), Simulator(), period=0.0)

    def test_samples_on_period(self):
        cloud = build_cloud()
        sim = Simulator()
        monitor = CloudMonitor(cloud, sim, period=10.0)
        monitor.start()
        TraceFeeder(sim, cloud, trace_for().merged()).start()
        sim.run_until(40.0)
        assert monitor.samples == 4
        for name, series in monitor.series.items():
            assert len(series) == 4, name

    def test_windowed_hit_rate_rises_as_cache_warms(self):
        cloud = build_cloud()
        sim = Simulator()
        monitor = CloudMonitor(cloud, sim, period=10.0)
        monitor.start()
        TraceFeeder(sim, cloud, trace_for().merged()).start()
        sim.run_until(40.0)
        rates = [v for _, v in monitor.series["cloud_hit_rate"].items()]
        assert rates[-1] > rates[0]
        assert all(0.0 <= r <= 1.0 for r in rates)

    def test_network_mb_is_windowed_not_cumulative(self):
        cloud = build_cloud()
        sim = Simulator()
        monitor = CloudMonitor(cloud, sim, period=10.0)
        monitor.start()
        TraceFeeder(sim, cloud, trace_for().merged()).start()
        sim.run_until(40.0)
        windows = [v for _, v in monitor.series["network_mb"].items()]
        total = cloud.transport.meter.total_bytes / (1024.0 * 1024.0)
        assert sum(windows) == pytest.approx(total, rel=0.01)

    def test_idle_windows_report_neutral_balance(self):
        cloud = build_cloud()
        sim = Simulator()
        monitor = CloudMonitor(cloud, sim, period=5.0)
        monitor.start()
        sim.run_until(20.0)  # no traffic at all
        covs = [v for _, v in monitor.series["beacon_cov"].items()]
        assert covs == [0.0] * 4
        ptm = [v for _, v in monitor.series["beacon_peak_to_mean"].items()]
        assert ptm == [1.0] * 4

    def test_stop_halts_sampling(self):
        cloud = build_cloud()
        sim = Simulator()
        monitor = CloudMonitor(cloud, sim, period=5.0)
        monitor.start()
        sim.run_until(10.0)
        monitor.stop()
        sim.run_until(40.0)
        assert monitor.samples == 2

    def test_docs_stored_gauge(self):
        cloud = build_cloud()
        sim = Simulator()
        monitor = CloudMonitor(cloud, sim, period=10.0)
        monitor.start()
        TraceFeeder(sim, cloud, trace_for().merged()).start()
        sim.run_until(40.0)
        gauges = [v for _, v in monitor.series["docs_stored"].items()]
        resident = sum(len(c.storage) for c in cloud.caches)
        assert gauges[-1] == float(resident)


class TestLatencySeries:
    """The windowed p50/p99 series that appear when telemetry is attached."""

    def build_traced(self, period=10.0):
        from repro.observe import Telemetry

        cloud = build_cloud()
        cloud.attach_telemetry(Telemetry())
        sim = Simulator()
        monitor = CloudMonitor(cloud, sim, period=period)
        monitor.start()
        TraceFeeder(sim, cloud, trace_for().merged()).start()
        sim.run_until(40.0)
        return cloud, monitor

    def test_absent_without_telemetry(self):
        cloud = build_cloud()
        monitor = CloudMonitor(cloud, Simulator(), period=10.0)
        assert "request_p50_ms" not in monitor.series
        assert "request_p99_ms" not in monitor.series

    def test_present_and_sampled_with_telemetry(self):
        _, monitor = self.build_traced()
        for name in ("request_p50_ms", "request_p99_ms"):
            series = monitor.series[name]
            assert len(series) == 4
            assert all(v >= 0.0 for _, v in series.items())

    def test_p99_dominates_p50(self):
        _, monitor = self.build_traced()
        p50 = [v for _, v in monitor.series["request_p50_ms"].items()]
        p99 = [v for _, v in monitor.series["request_p99_ms"].items()]
        assert all(hi >= lo for lo, hi in zip(p50, p99))

    def test_windows_match_raw_series(self):
        cloud, monitor = self.build_traced()
        latencies = cloud.telemetry.request_latencies
        samples = monitor.series["request_p99_ms"].items()
        start = 0.0
        for now, value in samples:
            expected = latencies.percentile_in(start, now, 0.99)
            assert value == (expected if expected is not None else 0.0)
            start = now

    def test_idle_windows_report_zero(self):
        from repro.observe import Telemetry

        cloud = build_cloud()
        cloud.attach_telemetry(Telemetry())
        sim = Simulator()
        monitor = CloudMonitor(cloud, sim, period=5.0)
        monitor.start()
        sim.run_until(10.0)  # no traffic
        assert [v for _, v in monitor.series["request_p50_ms"].items()] == [0.0, 0.0]


class TestDetachedPlanes:
    """What a monitor tracks is decided when it is built, and it holds those
    objects: detaching one from the cloud mid-run freezes its series — it
    used to kill the run at the next sample (``'NoneType' object has no
    attribute 'request_latencies'`` / ``'stats'`` / ``'counts'``)."""

    #: plane -> (detach method, a series of that plane)
    PLANES = {
        "telemetry": ("detach_telemetry", "request_p99_ms"),
        "overload": ("detach_overload", "avg_queue_depth"),
        "profile": ("detach_profile", "holder_verify_units"),
        "faults": ("detach_faults", "messages_dropped"),
    }

    def build_monitored(self):
        from repro.core.overload import OverloadConfig
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan, RetryPolicy
        from repro.observe import Telemetry, WorkProfile

        cloud = build_cloud()
        cloud.attach_telemetry(Telemetry())
        cloud.attach_overload(OverloadConfig(queue_capacity=4, service_ms=400.0))
        cloud.attach_profile(WorkProfile())
        cloud.attach_faults(
            FaultInjector(
                FaultPlan(seed=5, loss_rate=0.2, retry=RetryPolicy()), cloud.transport
            )
        )
        sim = Simulator()
        monitor = CloudMonitor(cloud, sim, period=10.0)
        monitor.start()
        TraceFeeder(sim, cloud, trace_for().merged()).start()
        return cloud, sim, monitor

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_detach_mid_run_freezes_the_series(self, plane):
        detach, series_name = self.PLANES[plane]
        cloud, sim, monitor = self.build_monitored()
        sim.run_until(25.0)
        getattr(cloud, detach)()
        assert getattr(cloud, plane) is None
        sim.run_until(40.0)  # sampling continues
        assert monitor.samples == 4
        for name, series in monitor.series.items():
            assert len(series) == 4, name
        # The detached object no longer moves: its last window reads zero.
        values = [v for _, v in monitor.series[series_name].items()]
        if plane != "profile":  # no holder walk in a cloud this small
            assert values[0] > 0.0
        assert values[3] == 0.0


class TestCounterResets:
    """``run_experiment`` zeroes the meter, the per-cache stats, the beacon
    totals and the overload stats at the end of warm-up. The monitor used to
    subtract its pre-reset baseline regardless: in the window holding the
    reset ``network_mb`` read negative, and the hit rate and the queue depth
    were a negative divided by a negative."""

    def monitored_run(self, warmup, duration=20.0):
        from repro.core.overload import OverloadConfig

        cloud = build_cloud()
        cloud.attach_overload(
            OverloadConfig(queue_capacity=10, service_ms=120.0, service_ms_per_kb=5.0)
        )
        sim = Simulator()
        monitor = CloudMonitor(cloud, sim, period=2.0)
        monitor.start()
        requests = [
            RequestRecord(t * 0.02, t % 4, t * 7 % 40) for t in range(int(duration * 50))
        ]
        updates = [UpdateRecord(t + 0.5, t % 40) for t in range(int(duration))]
        run_experiment(
            cloud.config,
            cloud.corpus,
            requests,
            updates,
            duration=duration,
            warmup=warmup,
            cloud=cloud,
            simulator=sim,
        )
        return cloud, {
            name: [value for _, value in series.items()]
            for name, series in monitor.series.items()
        }

    def test_no_negative_sample_on_a_warmed_run(self):
        _, series = self.monitored_run(warmup=5.0)
        for name, values in series.items():
            assert len(values) == 10, name
            assert min(values) >= 0.0, (name, values)
        assert all(0.0 <= rate <= 1.0 for rate in series["cloud_hit_rate"])

    def test_the_reset_window_reads_the_post_reset_counters(self):
        """Run ends with the window that holds the reset (warm-up at 5,
        windows close at 2, 4, 6), so the counters it should report are the
        cloud's own end-of-run totals."""
        cloud, series = self.monitored_run(warmup=5.0, duration=6.0)
        meter = cloud.transport.meter
        assert series["network_mb"][-1] == meter.total_bytes / (1024.0 * 1024.0)
        assert series["network_mb"][-1] < series["network_mb"][0]
        assert series["cloud_hit_rate"][-1] == cloud.aggregate_stats().cloud_hit_rate
        assert series["avg_queue_depth"][-1] == cloud.overload.stats.avg_queue_depth
        loads = list(cloud.beacon_loads().values())
        assert series["beacon_peak_to_mean"][-1] == max(loads) / (sum(loads) / len(loads))

    def test_an_unwarmed_run_reads_as_it_always_did(self):
        """No reset, no difference: the digest is of the series the monitor
        produced for this run before the reset rule existed."""
        _, series = self.monitored_run(warmup=0.0)
        digest = hashlib.sha256(json.dumps(series, sort_keys=True).encode()).hexdigest()
        assert digest == (
            "f6a639699015ec84879ce312850501e6cd17d54daf6b8cbf0b629f9e91cce238"
        )
