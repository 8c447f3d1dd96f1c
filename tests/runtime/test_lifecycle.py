"""Unit and integration tests for the OperatorLifecycle controller.

Migration and rescaling are *runtime* operations: they happen at a
simulation instant on a live engine, and must preserve work conservation,
in-order channel delivery, and determinism under every scheduler.
"""

import pytest

from repro.dataflow.operators import OpAddress
from repro.runtime.config import EngineConfig
from repro.runtime.engine import StreamEngine
from repro.workloads.arrivals import FixedBatchSize, PeriodicArrivals, drive_all_sources
from repro.workloads.tenants import make_latency_sensitive_job


def make_engine(scheduler="cameo", nodes=2, workers=2, rate=200.0,
                duration=8.0, seed=5, placement="single_node"):
    job = make_latency_sensitive_job("job", source_count=2, latency_constraint=30.0)
    engine = StreamEngine(
        EngineConfig(scheduler=scheduler, nodes=nodes, workers_per_node=workers,
                     placement=placement, seed=seed),
        [job],
    )
    drive_all_sources(engine, job, lambda s, i: PeriodicArrivals(1.0 / rate),
                      sizer=FixedBatchSize(1000), until=duration)
    return engine


def agg_address(engine) -> OpAddress:
    return next(op.address for op in engine.operator_runtimes
                if op.stage.name == "agg1")


class TestRescale:
    def test_rescale_up_spawns_workers(self):
        engine = make_engine(nodes=1)
        engine.sim.schedule_at(2.0, engine.lifecycle.rescale, 0, 4)
        engine.run(until=12.0)
        assert engine.nodes[0].active_worker_count == 4
        added = engine.nodes[0].workers[-1]
        assert added.created_at == 2.0

    def test_rescale_down_retires_workers(self):
        engine = make_engine(nodes=1, workers=4)
        engine.sim.schedule_at(3.0, engine.lifecycle.rescale, 0, 2)
        engine.run(until=12.0)
        assert engine.nodes[0].active_worker_count == 2
        retired = [w for w in engine.nodes[0].workers if w.retired]
        assert len(retired) == 2
        assert all(w.retired_at == 3.0 for w in retired)

    def test_rescale_never_retires_last_worker(self):
        engine = make_engine(nodes=1, workers=2)
        assert engine.lifecycle.rescale(0, 1) == 1
        # a second shrink request below one is rejected at validation
        with pytest.raises(ValueError):
            engine.lifecycle.rescale(0, 0)

    def test_rescale_preserves_conservation(self):
        engine = make_engine(nodes=1, workers=1, rate=500.0)
        engine.sim.schedule_at(2.0, engine.lifecycle.rescale, 0, 3)
        engine.sim.schedule_at(5.0, engine.lifecycle.rescale, 0, 1)
        engine.run(until=20.0)
        metrics = engine.metrics.job("job")
        assert metrics.tuples_processed == metrics.tuples_ingested


class TestMigrate:
    @pytest.mark.parametrize("scheduler", ["cameo", "fifo", "orleans"])
    def test_migration_preserves_conservation(self, scheduler):
        engine = make_engine(scheduler=scheduler)
        engine.sim.schedule_at(3.0, engine.lifecycle.migrate, agg_address(engine), 1)
        engine.run(until=20.0)
        metrics = engine.metrics.job("job")
        assert metrics.tuples_processed == metrics.tuples_ingested
        assert engine.operator_runtime(agg_address(engine)).node_id == 1
        assert engine.lifecycle.completed_migrations == 1

    def test_migrated_operator_runs_on_destination(self):
        engine = make_engine(rate=400.0)
        address = agg_address(engine)
        engine.sim.schedule_at(3.0, engine.lifecycle.migrate, address, 1)
        engine.run(until=15.0)
        # destination node workers actually executed messages post-move
        assert any(w.messages_executed > 0 for w in engine.nodes[1].workers)
        assert engine.operator_runtime(address).migrations == 1

    def test_migrate_to_same_node_is_noop(self):
        engine = make_engine()
        address = agg_address(engine)
        assert engine.lifecycle.migrate(address, 0) is True
        assert engine.lifecycle.completed_migrations == 0

    def test_migrate_rejects_unknown_node(self):
        engine = make_engine()
        with pytest.raises(ValueError):
            engine.lifecycle.migrate(agg_address(engine), 7)

    def test_busy_operator_defers_until_release(self):
        engine = make_engine(rate=600.0, workers=1)
        address = agg_address(engine)
        outcome = {}

        def migrate_now():
            outcome["immediate"] = engine.lifecycle.migrate(address, 1)

        # under sustained overload on one worker the agg operator is busy
        # with high probability at any instant; either path must land the
        # operator on the destination node
        engine.sim.schedule_at(4.0, migrate_now)
        engine.run(until=25.0)
        assert engine.operator_runtime(address).node_id == 1
        assert engine.lifecycle.completed_migrations == 1
        metrics = engine.metrics.job("job")
        assert metrics.tuples_processed == metrics.tuples_ingested

    def test_migration_keeps_results_correct(self):
        """Window sums are placement-independent, even mid-run."""
        def run(migrate):
            engine = make_engine(rate=100.0, duration=6.0)
            if migrate:
                engine.sim.schedule_at(2.5, engine.lifecycle.migrate,
                                       agg_address(engine), 1)
            engine.run(until=20.0)
            metrics = engine.metrics.job("job")
            return metrics.output_count, sum(metrics.output_values)

        static_count, static_sum = run(migrate=False)
        moved_count, moved_sum = run(migrate=True)
        assert moved_count == static_count
        assert moved_sum == pytest.approx(static_sum)

    def test_replies_still_flow_after_migration(self):
        engine = make_engine(rate=200.0)
        engine.sim.schedule_at(2.0, engine.lifecycle.migrate, agg_address(engine), 1)
        acks_before = {}

        def snapshot():
            acks_before["n"] = engine.metrics.total_acks

        engine.sim.schedule_at(2.5, snapshot)
        engine.run(until=12.0)
        assert engine.metrics.total_acks > acks_before["n"]

    def test_topology_dump_reflects_live_placement(self):
        engine = make_engine()
        address = agg_address(engine)
        engine.lifecycle.migrate(address, 1)
        dump = engine.describe_topology()
        assert dump["placements"][str(address)] == 1
        entry = next(o for o in dump["operators"] if o["address"] == str(address))
        assert entry["node"] == 1
        assert entry["built_on_node"] == 0
        assert entry["migrations"] == 1


class TestDiscard:
    """RunQueue.discard must forget queued operators under every scheduler."""

    @pytest.mark.parametrize("scheduler", ["cameo", "fifo", "orleans"])
    def test_discarded_operator_never_pops(self, scheduler):
        from repro.core.scheduler import CameoRunQueue
        from repro.runtime.baselines import FifoRunQueue, OrleansRunQueue
        from repro.core.context import PriorityContext
        from repro.dataflow.messages import Message

        if scheduler == "cameo":
            queue = CameoRunQueue()
        elif scheduler == "fifo":
            queue = FifoRunQueue()
        else:
            queue = OrleansRunQueue(2)

        class Stub:
            def __init__(self, mailbox):
                self.mailbox = mailbox
                self.busy = False
                self.queue_token = -1
                self.in_queue = False

        kept, dropped = Stub(queue.create_mailbox()), Stub(queue.create_mailbox())
        msg = Message(target=None, pc=PriorityContext(pri_local=1.0, pri_global=1.0))
        for stub in (kept, dropped):
            stub.mailbox.push(msg)
            queue.notify(stub, now=0.0)
        queue.discard(dropped)
        queue.discard(dropped)  # idempotent
        popped = []
        while True:
            op = queue.pop(0)
            if op is None:
                break
            popped.append(op)
        assert popped == [kept]
