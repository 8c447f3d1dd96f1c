"""The five benchmark workloads: shapes, sizes, and why each exists.

Sizes are given at the reference run length of 10 measured seconds and
scale linearly with ``--seconds``; shapes (jobs, rates, cluster, faults,
placement) never change with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from perfbench.inputs import SourceSpec

#: ``--seconds`` value the durations below are sized for
REFERENCE_SECONDS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loop: str               # closed vs open loop, and on which clock
    make_jobs: Callable[[], list]
    config: dict            # EngineConfig keyword arguments (seed is per rep)
    rates: dict             # job group (or job name) -> messages/s per source
    tuples: int             # events per message
    key_count: int
    duration: float         # ingest horizon per rep at REFERENCE_SECONDS
    drain: float            # extra simulated seconds for in-flight results
    reps: int               # timed reps after the discarded warm-up
    crash: tuple | None = None  # (node, start, end) as fractions of duration
    # special reps of the traced run
    probe_record_trace: bool = False   # one rep with the program's own tracing
    probe_single_worker: bool = False  # one rep on 1 worker: the in-process cost

    @property
    def backend(self) -> str:
        return self.config.get("backend", "sim")

    def horizon(self, seconds: float) -> float:
        return self.duration * seconds / REFERENCE_SECONDS

    def source_specs(self, jobs: list) -> list[SourceSpec]:
        specs = []
        for job in jobs:
            rate = self.rates.get(job.name, self.rates.get(job.group))
            for stage_name in job.graph.source_stages:
                for index in range(job.graph.stage(stage_name).parallelism):
                    specs.append(SourceSpec(
                        job.name, stage_name, index, rate, self.tuples,
                        self.key_count, job.ingestion_delay,
                    ))
        return specs

    def engine_config(self, seed: int, seconds: float, **overrides):
        """The ``EngineConfig`` of one rep (fault times scale with the run)."""
        from repro.runtime.config import EngineConfig

        kwargs = dict(self.config, seed=seed)
        if self.crash is not None:
            from repro.sim.faults import ChannelLoss, CrashWindow, FaultSchedule

            horizon = self.horizon(seconds)
            node, start, end = self.crash
            kwargs["fault_schedule"] = FaultSchedule(
                crashes=[CrashWindow(node=node, start=start * horizon,
                                     end=end * horizon)],
                losses=[ChannelLoss(rate=0.01, scope="remote", end=horizon)],
            )
        kwargs.update(overrides)
        return EngineConfig(**kwargs)


def _tenants() -> list:
    """The fig08 tenant mix: 4 latency-sensitive + 4 bulk-analytics jobs."""
    from repro.workloads.tenants import (
        make_bulk_analytics_job,
        make_latency_sensitive_job,
    )

    ls = [make_latency_sensitive_job(f"ls{i}", source_count=4, latency_constraint=0.8)
          for i in range(4)]
    ba = [make_bulk_analytics_job(f"ba{i}", source_count=4, latency_constraint=7200.0)
          for i in range(4)]
    return ls + ba


def _ipqs() -> list:
    from repro.queries.ipq import all_ipqs

    return all_ipqs()


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sim_tenants_hot",
        why="fig08a cell at 93% simulated utilisation: per-message engine cost "
            "(converter, scheduler, kernel, node, transport, metrics) dominates; "
            "recovery and mp do nothing",
        loop="open loop on the simulated clock",
        make_jobs=_tenants,
        config=dict(scheduler="cameo", policy="llf", nodes=2, workers_per_node=2),
        rates={"LS": 1.0, "BA": 85.0},
        tuples=1000, key_count=8, duration=12.0, drain=5.0, reps=3,
        probe_record_trace=True,
    ),
    Workload(
        name="sim_ipq_bigbatch",
        why="ipq1-4 under FIFO with 20000-tuple messages: operator fold and key "
            "routing do the work and core.* is bypassed, the control for any "
            "converter/scheduler change",
        loop="open loop on the simulated clock",
        make_jobs=_ipqs,
        config=dict(scheduler="fifo", nodes=1, workers_per_node=4),
        rates={"LS": 1.0, "ipq4": 0.4},
        tuples=20000, key_count=64, duration=32.0, drain=5.0, reps=3,
    ),
    Workload(
        name="sim_faults_ckpt",
        why="tenant mix on 3 nodes with a node crash, 1% channel loss and 1 s "
            "checkpoints: every send goes through ReliableDelivery, state is "
            "snapshotted and restored, fail-over runs",
        loop="open loop on the simulated clock",
        make_jobs=_tenants,
        config=dict(scheduler="cameo", policy="llf", nodes=3, workers_per_node=2,
                    state_recovery="checkpoint", checkpoint_interval=1.0),
        rates={"LS": 1.0, "BA": 40.0},
        tuples=1000, key_count=8, duration=18.0, drain=10.0, reps=3,
        crash=(1, 0.4, 0.56),
    ),
    Workload(
        name="mp_flood_2w",
        why="2 worker processes, round-robin placement, costs not realised: "
            "encode, pipe, decode, ack and dispatch are the whole cost, where a "
            "shared-memory ring or codec change must show",
        loop="closed replay: workers absorb the captured trace as fast as they can",
        make_jobs=_tenants,
        config=dict(backend="mp", scheduler="cameo", policy="llf", nodes=2,
                    workers_per_node=1, placement="round_robin",
                    mp_realtime=False, mp_cost_mode="none"),
        rates={"LS": 1.0, "BA": 40.0},
        # 100-tuple messages keep DATA frames (~30 KB) far below the pipe
        # buffer: at 1000 tuples they reach it (~200 KB) and about one rep
        # in twelve deadlocks, both workers blocked in flush() (README)
        tuples=100, key_count=8, duration=20.0, drain=0.0, reps=8,
        probe_single_worker=True,
    ),
    Workload(
        name="mp_paced_2w",
        why="2 worker processes paced on the wall clock at 56% occupancy: the "
            "streaming user's latency, set by poll interval, flush batching and "
            "heartbeats rather than CPU",
        loop="open loop on the wall clock at a fixed rate",
        make_jobs=_tenants,
        config=dict(backend="mp", scheduler="cameo", policy="llf", nodes=2,
                    workers_per_node=1, placement="round_robin",
                    mp_realtime=True, mp_cost_mode="sleep"),
        rates={"LS": 1.0, "BA": 25.0},
        tuples=1000, key_count=8, duration=11.0, drain=0.0, reps=1,
    ),
)}
