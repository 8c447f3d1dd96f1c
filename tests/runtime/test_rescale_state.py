"""Mid-window stage rescale must preserve windowed aggregates exactly.

The tentpole regression suite for the state layer's migration path
(ISSUE 8): ``rescale_stage`` moves every key's accumulator object whole,
so a rescale at any quiescent instant — even with windows half-built —
yields output values bit-identical to a run that never rescaled.  The
negative control replicates what the runtime did *before* the state
layer existed (flip routes and mask progress channels, move no state)
and pins the data loss that motivated the refactor.
"""

from __future__ import annotations

import functools

import pytest

from repro.runtime.config import EngineConfig
from repro.runtime.engine import StreamEngine
from repro.runtime.mp.engine import MpStreamEngine
from repro.workloads.arrivals import FixedBatchSize, PeriodicArrivals, drive_all_sources
from repro.workloads.tenants import make_latency_sensitive_job

DURATION = 8.0
#: between the 1 Hz arrival instants, so the stage is quiescent but the
#: current window is half-built on every agg0 instance
RESCALE_AT = 4.5


def run_sim(scheduler="cameo", seed=11, before_run=None, schedule=()):
    """One sim run of a two-source LS job; agg0 is key-partitioned x2."""
    job = make_latency_sensitive_job("job", source_count=2, latency_constraint=30.0)
    engine = StreamEngine(
        EngineConfig(scheduler=scheduler, nodes=2, workers_per_node=2, seed=seed),
        [job],
    )
    drive_all_sources(engine, job, lambda s, i: PeriodicArrivals(1.0),
                      sizer=FixedBatchSize(500), until=DURATION)
    if before_run is not None:
        before_run(engine)
    for when, fn_name, args in schedule:
        engine.sim.schedule_at(when, getattr(engine.lifecycle, fn_name), *args)
    engine.run(until=DURATION + 10.0)
    return engine


def lossy_rescale(engine, job_name, stage_name, parallelism):
    """Steps 1 + 3 of a stage rescale with the state movement elided —
    the pre-refactor behaviour this PR replaces."""
    ops = engine.lifecycle._ops
    instances = sorted(
        (op_rt for address, op_rt in ops.items()
         if address.job == job_name and address.stage == stage_name),
        key=lambda op_rt: op_rt.address.index,
    )
    stage = instances[0].stage
    for op_rt in ops.values():
        for route in op_rt.routes:
            if route.dst_stage is stage and route.targets[0].job is instances[0].job:
                route.active = parallelism
    for i, src_rt in enumerate(instances):
        for route in src_rt.routes:
            for link in route.links:
                progress = link[0].operator.progress
                if progress is not None:
                    progress.set_channel_active(link[2], i < parallelism)


class TestSimRescaleExactness:
    @pytest.mark.parametrize("scheduler", ["cameo", "fifo", "orleans"])
    def test_mid_window_shrink_preserves_aggregates_exactly(self, scheduler):
        baseline = run_sim(scheduler=scheduler)
        rescaled = run_sim(
            scheduler=scheduler,
            schedule=[(RESCALE_AT, "rescale_stage", ("job", "agg0", 1))],
        )
        base = baseline.metrics.job("job")
        moved = rescaled.metrics.job("job")
        # exact float equality: accumulator objects move whole, so every
        # per-key fold happens in the original order
        assert moved.output_values == base.output_values
        assert moved.output_count == base.output_count
        assert moved.tuples_processed == moved.tuples_ingested
        assert rescaled.lifecycle.stage_rescales == 1
        assert rescaled.lifecycle.keys_moved > 0

    def test_shrink_then_grow_back_preserves_aggregates_exactly(self):
        baseline = run_sim()
        bounced = run_sim(schedule=[
            (RESCALE_AT, "rescale_stage", ("job", "agg0", 1)),
            (RESCALE_AT + 2.0, "rescale_stage", ("job", "agg0", 2)),
        ])
        assert (bounced.metrics.job("job").output_values
                == baseline.metrics.job("job").output_values)
        assert bounced.lifecycle.stage_rescales == 2

    def test_rescale_without_state_movement_loses_aggregates(self):
        """Pin the pre-refactor loss: flipping routes without moving state
        strands the deactivated instance's half-built windows forever."""
        baseline = run_sim()
        lossy = run_sim(before_run=lambda engine: engine.sim.schedule_at(
            RESCALE_AT, lossy_rescale, engine, "job", "agg0", 1))
        base = baseline.metrics.job("job")
        lost = lossy.metrics.job("job")
        assert sum(lost.output_values) < sum(base.output_values)

    def test_rescale_validation(self):
        assert_rescale_validation(run_sim(seed=3).lifecycle.rescale_stage)


def assert_rescale_validation(rescale):
    """``rescale(job, stage, parallelism)`` rejects the four invalid
    rescales of the LS job (agg0 is key-partitioned x2, the source x2
    round-robin) with the messages of ``check_stage_rescale``."""
    with pytest.raises(ValueError, match="unknown stage"):
        rescale("job", "nope", 1)
    with pytest.raises(ValueError, match="active count"):
        rescale("job", "agg0", 0)
    with pytest.raises(ValueError, match="active count"):
        rescale("job", "agg0", 3)
    with pytest.raises(ValueError, match="not key-partitioned"):
        rescale("job", "source", 1)


def run_mp(rescale=False, duration=4.0):
    job = make_latency_sensitive_job("job", source_count=2, latency_constraint=30.0)
    engine = MpStreamEngine(
        EngineConfig(backend="mp", scheduler="cameo", nodes=1,
                     workers_per_node=2, seed=11),
        [job],
    )
    drive_all_sources(engine, job, lambda s, i: PeriodicArrivals(1.0),
                      sizer=FixedBatchSize(200), until=duration)
    if rescale:
        engine.rescale_stage_at(duration / 2 + 0.5, "job", "agg0", 1)
    engine.run(until=duration + 1.5)
    return engine


class TestMpRescaleParity:
    def test_one_worker_mp_rescale_preserves_aggregates(self):
        baseline = run_mp(rescale=False)
        rescaled = run_mp(rescale=True)
        base = baseline.metrics.job("job")
        moved = rescaled.metrics.job("job")
        assert moved.output_count == base.output_count
        assert sorted(moved.output_values) == sorted(base.output_values)
        stats = rescaled.info["reports"][0]
        assert stats["stage_rescales"] == 1
        assert stats["keys_moved"] > 0

    def test_mp_rescale_needs_single_node(self):
        job = make_latency_sensitive_job("job", source_count=2)
        engine = MpStreamEngine(
            EngineConfig(backend="mp", nodes=2, workers_per_node=2, seed=1),
            [job],
        )
        with pytest.raises(ValueError, match="nodes=1"):
            engine.rescale_stage_at(1.0, "job", "agg0", 1)

    def test_rescale_validation(self):
        """Invalid rescales fail when scheduled, not in the worker at the
        rescale instant (where they would kill the only worker)."""
        job = make_latency_sensitive_job("job", source_count=2)
        engine = MpStreamEngine(
            EngineConfig(backend="mp", nodes=1, workers_per_node=2, seed=1),
            [job],
        )
        assert_rescale_validation(functools.partial(engine.rescale_stage_at, 1.0))
