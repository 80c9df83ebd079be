"""Metrics: load-balance statistics, time series, and report formatting.

The paper quantifies load balancing with two statistics over the per-beacon
load vector — the **coefficient of variation** (std / mean; Figures 5-6) and
the **peak-to-mean ratio** (Figures 3-4) — and charts network load in MB per
unit time (Figures 8-9). This package computes those statistics and renders
the tabular reports the benchmark harness prints.
"""

from repro.metrics.loadbalance import (
    LoadBalanceStats,
    coefficient_of_variation,
    load_balance_stats,
    peak_to_mean,
)
from repro.metrics.report import Table, format_figure_header
from repro.metrics.timeseries import TimeSeries

__all__ = [
    "LoadBalanceStats",
    "Table",
    "TimeSeries",
    "coefficient_of_variation",
    "format_figure_header",
    "load_balance_stats",
    "peak_to_mean",
]
