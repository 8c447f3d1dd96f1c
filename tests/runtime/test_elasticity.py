"""Unit and integration tests for elastic worker pools."""

import pytest

from repro.runtime.config import EngineConfig
from repro.runtime.engine import StreamEngine
from repro.workloads.arrivals import FixedBatchSize, PeriodicArrivals, drive_all_sources
from repro.workloads.tenants import make_latency_sensitive_job


def make_engine(scheduler="cameo", workers=2, rate=200.0, duration=8.0, seed=5):
    job = make_latency_sensitive_job("job", source_count=2, latency_constraint=30.0)
    engine = StreamEngine(
        EngineConfig(scheduler=scheduler, nodes=1, workers_per_node=workers,
                     seed=seed),
        [job],
    )
    drive_all_sources(engine, job, lambda s, i: PeriodicArrivals(1.0 / rate),
                      sizer=FixedBatchSize(1000), until=duration)
    return engine


class TestAddWorker:
    def test_add_worker_mid_run(self):
        # a single overloaded worker guarantees the added one gets work
        engine = make_engine(workers=1, rate=700.0)
        engine.sim.schedule_at(3.0, engine.lifecycle.spawn, 0)
        engine.run(until=12.0)
        node = engine.nodes[0]
        assert len(node.workers) == 2
        added = node.workers[-1]
        assert added.created_at == 3.0
        assert added.busy_time > 0  # it actually took work

    def test_added_worker_increases_capacity(self):
        def throughput(extra_at):
            engine = make_engine(workers=1, rate=700.0, duration=6.0)
            if extra_at is not None:
                engine.sim.schedule_at(extra_at, engine.lifecycle.spawn, 0)
            engine.run(until=6.0)  # measure during pressure, before drain
            return engine.metrics.job("job").tuples_processed

        assert throughput(0.5) > throughput(None)

    @pytest.mark.parametrize("scheduler", ["cameo", "fifo", "orleans"])
    def test_add_worker_under_each_scheduler(self, scheduler):
        engine = make_engine(scheduler=scheduler)
        engine.sim.schedule_at(2.0, engine.lifecycle.spawn, 0)
        engine.run(until=12.0)
        metrics = engine.metrics.job("job")
        assert metrics.tuples_processed == metrics.tuples_ingested


class TestRetireWorker:
    def test_retired_worker_stops_taking_work(self):
        engine = make_engine(workers=2)
        retired_holder = {}

        def retire():
            retired_holder["worker"] = engine.lifecycle.retire(0)

        engine.sim.schedule_at(3.0, retire)
        engine.run(until=15.0)
        worker = retired_holder["worker"]
        assert worker is not None
        assert worker.retired
        assert worker.retired_at == 3.0
        # no work conservation is lost
        metrics = engine.metrics.job("job")
        assert metrics.tuples_processed == metrics.tuples_ingested

    def test_never_retires_the_last_worker(self):
        engine = make_engine(workers=1)
        assert engine.lifecycle.retire(0) is None

    def test_lifetime_accounting(self):
        engine = make_engine(workers=2)
        engine.sim.schedule_at(2.0, engine.lifecycle.spawn, 0)
        engine.sim.schedule_at(6.0, engine.lifecycle.retire, 0)
        engine.run(until=10.0)
        # base workers: 2 x 10s; the added worker retires at 6 (it is the
        # last active one at that point): 4s
        assert engine.worker_seconds(10.0) == pytest.approx(24.0)
