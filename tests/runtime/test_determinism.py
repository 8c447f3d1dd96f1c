"""Same-seed reruns must produce bit-identical schedules.

The paper's claims are about scheduling order, and the hot-path fast paths
(quantum-batched inline execution, static delay caching) are only
admissible because they provably never change a scheduling decision.  This
test pins that: a fig08-style multi-tenant mix, run twice with the same
seed, must produce *identical* per-message execution timelines under every
scheduler, message ids included.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import TenantMix, run_tenant_mix
from repro.runtime.config import EngineConfig
from repro.runtime.engine import StreamEngine
from repro.sim.faults import ChannelLoss, CrashWindow, DelaySpike, FaultSchedule
from repro.workloads.arrivals import FixedBatchSize, PeriodicArrivals, drive_all_sources
from repro.workloads.tenants import (
    make_bulk_analytics_job,
    make_latency_sensitive_job,
)


def _timeline(scheduler: str):
    mix = TenantMix(ls_count=2, ba_count=2, ba_msg_rate=30.0)
    engine = run_tenant_mix(
        scheduler,
        mix,
        duration=3.0,
        drain=1.0,
        nodes=2,
        workers_per_node=2,
        seed=7,
        config_overrides={"record_timeline": True},
    )
    return engine.metrics.timeline


@pytest.mark.parametrize("scheduler", ["cameo", "fifo", "orleans"])
def test_same_seed_reruns_are_bit_identical(scheduler):
    first = _timeline(scheduler)
    second = _timeline(scheduler)
    assert len(first) > 100, "workload should actually process messages"
    assert first == second


def _reconfigured_log(scheduler: str):
    """Execution timeline of a run that migrates and rescales mid-flight.

    Dynamic reconfiguration goes through the public lifecycle API and must
    be exactly as deterministic as a static run: migration drains mailboxes
    in pop order and rescaling spawns/retires workers at a fixed simulation
    instant, so none of it may depend on wall clock or hash order.
    """
    ls = make_latency_sensitive_job("ls0", source_count=2, latency_constraint=0.4)
    ba = make_bulk_analytics_job("ba0", source_count=2)
    engine = StreamEngine(
        EngineConfig(scheduler=scheduler, nodes=2, workers_per_node=2,
                     placement="single_node", seed=7,
                     record_timeline=True),
        [ls, ba],
    )
    for job, period in ((ls, 1 / 120.0), (ba, 1 / 40.0)):
        drive_all_sources(engine, job, lambda s, i: PeriodicArrivals(period),
                          sizer=FixedBatchSize(400), until=3.0)
    agg = next(op.address for op in engine.operator_runtimes
               if op.address.job == "ls0" and op.stage.name == "agg1")
    engine.sim.schedule_at(1.0, engine.lifecycle.migrate, agg, 1)
    engine.sim.schedule_at(1.5, engine.lifecycle.rescale, 1, 4)
    engine.sim.schedule_at(2.5, engine.lifecycle.rescale, 1, 2)
    engine.run(until=4.0)
    assert engine.operator_runtime(agg).node_id == 1
    return engine.metrics.timeline


@pytest.mark.parametrize("scheduler", ["cameo", "fifo", "orleans"])
def test_reconfigured_runs_are_bit_identical(scheduler):
    """Mid-run migrate + rescale must not break same-seed reproducibility."""
    first = _reconfigured_log(scheduler)
    second = _reconfigured_log(scheduler)
    assert len(first) > 100, "workload should actually process messages"
    assert first == second


def _faulted_log(scheduler: str):
    """Execution timeline of a run under a crash + loss + delay-spike schedule.

    Fault injection draws from its own named RNG substream and every
    crash/detection/fail-over step runs through the kernel's ordinary event
    scheduling, so a seeded faulted run must replay bit-identically —
    retransmissions, duplicate drops, evacuations and all.
    """
    schedule = FaultSchedule(
        crashes=[CrashWindow(node=1, start=1.0, end=2.0)],
        losses=[ChannelLoss(rate=0.05, scope="remote")],
        delay_spikes=[DelaySpike(start=1.5, end=2.0, factor=2.0, extra=0.01)],
    )
    ls = make_latency_sensitive_job("ls0", source_count=2)
    ba = make_bulk_analytics_job("ba0", source_count=2)
    engine = StreamEngine(
        EngineConfig(scheduler=scheduler, nodes=2, workers_per_node=2,
                     seed=7, fault_schedule=schedule,
                     record_timeline=True),
        [ls, ba],
    )
    for job, period in ((ls, 1 / 40.0), (ba, 1 / 15.0)):
        drive_all_sources(engine, job, lambda s, i, p=period: PeriodicArrivals(p),
                          sizer=FixedBatchSize(200), until=3.0)
    engine.run(until=5.0)
    assert engine.metrics.crashes == 1, "the schedule should actually fire"
    return engine.metrics.timeline


@pytest.mark.parametrize("scheduler", ["cameo", "fifo", "orleans"])
def test_faulted_runs_are_bit_identical(scheduler):
    """Same seed + same fault schedule => identical execution timelines."""
    first = _faulted_log(scheduler)
    second = _faulted_log(scheduler)
    assert len(first) > 100, "workload should actually process messages"
    assert first == second


def _zero_fault_log(scheduler: str, schedule):
    mix = TenantMix(ls_count=2, ba_count=2, ba_msg_rate=30.0)
    engine = run_tenant_mix(
        scheduler, mix, duration=3.0, drain=1.0, nodes=2, workers_per_node=2,
        seed=7,
        config_overrides={"record_timeline": True,
                          "fault_schedule": schedule},
    )
    return engine.metrics.timeline


@pytest.mark.parametrize("scheduler", ["cameo", "fifo", "orleans"])
def test_empty_fault_schedule_is_bit_identical_to_none(scheduler):
    """An empty FaultSchedule must be *inert*: no machinery installed, so
    the execution timeline matches a run with no schedule at all."""
    assert _zero_fault_log(scheduler, None) == \
        _zero_fault_log(scheduler, FaultSchedule())


def test_schedulers_actually_differ():
    """Sanity check that the execution timeline is a discriminating signal: the
    schedulers order work differently, so their logs should not collide."""
    logs = {s: _timeline(s) for s in ("cameo", "fifo", "orleans")}
    assert logs["cameo"] != logs["fifo"]
    assert logs["cameo"] != logs["orleans"]


def test_back_to_back_engines_number_messages_alike():
    """Message ids belong to the engine: a second engine built in the same
    process numbers its messages from 0 again, so equal runs give equal
    timeline tuples, ``msg_id`` included."""

    def timeline():
        mix = TenantMix(ls_count=1, ba_count=1)
        engine = run_tenant_mix("cameo", mix, duration=1.0, drain=0.5,
                                seed=3,
                                config_overrides={"record_timeline": True})
        return engine.metrics.timeline

    first, second = timeline(), timeline()
    assert first and min(entry[4] for entry in first) == 0
    assert first == second
