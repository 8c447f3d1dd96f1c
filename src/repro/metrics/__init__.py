"""Metrics: collection during runs, statistics, and report tables."""

from repro.metrics.collectors import JobMetrics, MetricsHub
from repro.metrics.export import result_to_json
from repro.metrics.plots import ascii_cdf, ascii_schedule
from repro.metrics.report import format_latency_ms, format_table
from repro.metrics.stats import (
    LatencySummary,
    RunningStat,
    cdf_points,
    percentile,
    ratio,
    summarize,
)

__all__ = [
    "JobMetrics",
    "LatencySummary",
    "MetricsHub",
    "RunningStat",
    "ascii_cdf",
    "ascii_schedule",
    "cdf_points",
    "format_latency_ms",
    "format_table",
    "percentile",
    "ratio",
    "result_to_json",
    "summarize",
]
