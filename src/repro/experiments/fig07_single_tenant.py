"""Figure 7 — single-tenant experiments: IPQ1-IPQ4 under each scheduler.

One query at a time on a single node (4 workers, mirroring the DS12-v2's
4 vCPUs), driven hard enough that operators contend for the worker pool.

Panels: (a) median/tail latency per query and scheduler, (b) latency CDF
(IPQ1), (c) operator schedule timeline for IPQ1 (stored in extras: the
run's ``metrics.timeline``, which ``ascii_schedule`` draws).

Paper shapes: Cameo improves median by up to ~2.7x and p99 by up to ~3.2x
over Orleans; FIFO's median can be slightly below Cameo's but its tail is
as bad as Orleans'; Orleans is closest to Cameo on IPQ4 (heavy messages
benefit from locality).
"""

from __future__ import annotations

from typing import Callable

from repro.experiments.common import SCHEDULERS, ExperimentResult
from repro.metrics.stats import cdf_points
from repro.queries.ipq import ipq1, ipq2, ipq3, ipq4
from repro.runtime.config import EngineConfig
from repro.runtime.engine import StreamEngine
from repro.workloads.arrivals import FixedBatchSize, PoissonArrivals, drive_all_sources

QUERIES: dict[str, Callable] = {"IPQ1": ipq1, "IPQ2": ipq2, "IPQ3": ipq3, "IPQ4": ipq4}

#: per-query ingestion rate (msg/s per source): chosen just below each
#: query's bottleneck operator saturation so queueing is pronounced but
#: bounded.  IPQ4's single join operator saturates much earlier.
QUERY_RATES = {"IPQ1": 90.0, "IPQ2": 60.0, "IPQ3": 90.0, "IPQ4": 14.0}


def _run_query(
    query_name: str,
    scheduler: str,
    msg_rate: float,
    duration: float,
    seed: int,
    record_timeline: bool,
) -> StreamEngine:
    job = QUERIES[query_name]()
    config = EngineConfig(
        scheduler=scheduler,
        nodes=1,
        workers_per_node=4,
        seed=seed,
        record_timeline=record_timeline,
    )
    engine = StreamEngine(config, [job])
    drive_all_sources(
        engine, job, lambda s, i: PoissonArrivals(msg_rate),
        sizer=FixedBatchSize(1000), until=duration,
    )
    engine.run(until=duration + 5.0)
    return engine


def run_fig07(
    duration: float = 30.0,
    msg_rate: float | None = None,
    seed: int = 2,
) -> ExperimentResult:
    result = ExperimentResult(
        name="fig07",
        title="Single-tenant latency: IPQ1-4 x {orleans, fifo, cameo}",
        headers=["query", "scheduler", "p50 (ms)", "p95 (ms)", "p99 (ms)", "outputs"],
        notes="expect: cameo p50 <= baselines (up to ~2.7x); fifo/orleans tails worse; "
              "orleans closest on IPQ4",
    )
    for query_name in QUERIES:
        for scheduler in SCHEDULERS:
            record = query_name == "IPQ1"
            rate = msg_rate if msg_rate is not None else QUERY_RATES[query_name]
            engine = _run_query(query_name, scheduler, rate, duration, seed, record)
            job_name = engine.metrics.job_names[0]
            metrics = engine.metrics.job(job_name)
            summary = metrics.summary()
            result.rows.append(
                [query_name, scheduler, summary.p50 * 1e3, summary.p95 * 1e3,
                 summary.p99 * 1e3, summary.count]
            )
            result.extras[(query_name, scheduler)] = summary
            if record:
                result.extras[("cdf", scheduler)] = cdf_points(metrics.latencies, 40)
                result.extras[("timeline", scheduler)] = engine.metrics.timeline
    return result
