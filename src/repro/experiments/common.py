"""Shared experiment harness.

Every ``figNN`` module exposes ``run_figNN(...) -> ExperimentResult``.  A
result is a renderable table (the same rows the paper's figure plots) plus
free-form extras for tests and benchmarks to assert the paper's *shape*
claims on.

Scaling note: the paper's testbed is a 32-node Azure cluster driven by 16
client machines over minutes-long runs.  Experiments here run the same
topologies on a scaled-down simulated cluster (2-4 nodes, 2-4 workers) for
tens of simulated seconds, with ingestion rates chosen to hit the same
operating points (fraction of saturation).  EXPERIMENTS.md records both the
paper's numbers and ours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.dataflow.jobs import JobSpec
from repro.metrics.report import format_table
from repro.runtime.config import EngineConfig
from repro.runtime.engine import StreamEngine, make_engine
from repro.workloads.arrivals import (
    ArrivalProcess,
    BatchSizer,
    FixedBatchSize,
    PeriodicArrivals,
    drive_all_sources,
)
from repro.workloads.tenants import (
    make_bulk_analytics_job,
    make_latency_sensitive_job,
)

SCHEDULERS = ("cameo", "orleans", "fifo")

#: §6.2 latency constraints
LS_LATENCY_TARGET = 0.8
BA_LATENCY_TARGET = 7200.0


@dataclass
class ExperimentResult:
    """A reproduced exhibit: table rows plus assertable extras."""

    name: str
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: str = ""
    extras: dict = field(default_factory=dict)

    def render(self, precision: int = 2) -> str:
        table = format_table(self.headers, self.rows, title=f"[{self.name}] {self.title}",
                             precision=precision)
        if self.notes:
            table += f"\n{self.notes}"
        return table


@dataclass
class TenantMix:
    """A multi-tenant workload: jobs plus how to drive them."""

    ls_count: int = 4
    ba_count: int = 8
    ls_sources: int = 4
    ba_sources: int = 4
    ls_msg_rate: float = 1.0
    ba_msg_rate: float = 10.0
    tuples_per_msg: int = 1000
    ls_latency: float = LS_LATENCY_TARGET
    ba_latency: float = BA_LATENCY_TARGET
    #: multiplier on the BA stages' per-message cost (coarse-grained bulk
    #: messages, the §2 setting the fault experiments run under)
    ba_cost_scale: float = 1.0

    def build_jobs(self) -> list[JobSpec]:
        ls = [
            make_latency_sensitive_job(
                f"ls{i}", source_count=self.ls_sources, latency_constraint=self.ls_latency
            )
            for i in range(self.ls_count)
        ]
        ba = [
            make_bulk_analytics_job(
                f"ba{i}", source_count=self.ba_sources, latency_constraint=self.ba_latency,
                cost_scale=self.ba_cost_scale,
            )
            for i in range(self.ba_count)
        ]
        return ls + ba

    def install_drivers(
        self,
        engine: StreamEngine,
        jobs: Sequence[JobSpec],
        duration: float,
        ls_arrivals: Optional[Callable[[str, int], ArrivalProcess]] = None,
        ba_arrivals: Optional[Callable[[str, int], ArrivalProcess]] = None,
        ls_sizer: Optional[BatchSizer] = None,
        ba_sizer: Optional[BatchSizer] = None,
    ) -> None:
        ls_arrivals = ls_arrivals or (lambda s, i: PeriodicArrivals(1.0 / self.ls_msg_rate))
        ba_arrivals = ba_arrivals or (lambda s, i: PeriodicArrivals(1.0 / self.ba_msg_rate))
        for job in jobs:
            if job.group == "LS":
                drive_all_sources(
                    engine, job, ls_arrivals,
                    sizer=ls_sizer or FixedBatchSize(self.tuples_per_msg), until=duration,
                )
            else:
                drive_all_sources(
                    engine, job, ba_arrivals,
                    sizer=ba_sizer or FixedBatchSize(self.tuples_per_msg), until=duration,
                )


def build_tenant_mix(
    scheduler: str,
    mix: TenantMix,
    duration: float = 30.0,
    nodes: int = 2,
    workers_per_node: int = 2,
    seed: int = 1,
    config_overrides: Optional[dict] = None,
    **drivers,
) -> StreamEngine:
    """Build one multi-tenant configuration — config, jobs, source drivers
    (``drivers`` goes to :meth:`TenantMix.install_drivers`) — without
    running it, for callers that must touch the engine first."""
    config = EngineConfig(
        scheduler=scheduler,
        nodes=nodes,
        workers_per_node=workers_per_node,
        seed=seed,
        **(config_overrides or {}),
    )
    jobs = mix.build_jobs()
    # backend="mp" (via config_overrides) swaps in the process-backed engine;
    # the sim default goes through the same factory and stays bit-identical
    engine = make_engine(config, jobs)
    mix.install_drivers(engine, jobs, duration, **drivers)
    return engine


def run_tenant_mix(
    scheduler: str,
    mix: TenantMix,
    duration: float = 30.0,
    drain: float = 5.0,
    **build,
) -> StreamEngine:
    """Run one multi-tenant configuration to completion; returns the engine
    (``build`` goes to :func:`build_tenant_mix`)."""
    engine = build_tenant_mix(scheduler, mix, duration, **build)
    engine.run(until=duration + drain)
    return engine


def ls_outcome(engine: StreamEngine, duration: float) -> dict:
    """LS deadline success over the *analytic* expected output count — one
    per driven 1 s tumbling window per job — so an output that never
    materialises (starved, lost, or shed) is a miss."""
    ls_jobs = engine.metrics.jobs_in_group("LS")
    on_time = sum(j.on_time_count() for j in ls_jobs)
    expected = int(duration // 1.0) * len(ls_jobs)
    return {
        "success": min(1.0, on_time / expected),
        "on_time": on_time,
        "expected": expected,
        "p99": engine.metrics.group_summary("LS").p99,
    }


def recovery_time(engine: StreamEngine, crash_at: float) -> float:
    """Seconds after the (first) crash until LS outputs last violated their
    constraint (0 = the SLO was never broken after the crash)."""
    worst = 0.0
    for job in engine.metrics.jobs_in_group("LS"):
        for t, latency in zip(job.output_times, job.latencies):
            if t >= crash_at and latency > job.latency_constraint:
                worst = max(worst, t - crash_at)
    return worst


def group_row(engine: StreamEngine, group: str, duration: float) -> dict:
    """Standard per-group summary used across the multi-tenant figures."""
    summary = engine.metrics.group_summary(group)
    return {
        "p50": summary.p50,
        "p99": summary.p99,
        "mean": summary.mean,
        "std": summary.std,
        "count": summary.count,
        "success": engine.metrics.group_success_rate(group),
        "throughput": engine.metrics.group_throughput(group, duration),
    }
