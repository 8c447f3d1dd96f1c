"""Scenario-level integration tests: time domains, sliding windows,
noise injection, semantics ablation, violation accounting."""

import pytest

from repro.dataflow.jobs import JobSpec
from repro.dataflow.windows import WindowSpec
from repro.queries.builder import QueryBuilder
from repro.runtime.config import EngineConfig
from repro.runtime.engine import StreamEngine
from repro.workloads.arrivals import FixedBatchSize, PeriodicArrivals, drive_all_sources
from repro.workloads.tenants import make_latency_sensitive_job


class TestSlidingWindowPipeline:
    def test_sliding_counts_overlap(self):
        job = (
            QueryBuilder("sliding")
            .source(parallelism=1)
            .sliding_agg(2.0, 1.0, agg="count", by_key=False)
            .sink()
            .build(latency_constraint=10.0)
        )
        engine = StreamEngine(EngineConfig(scheduler="cameo"), [job])
        # one event per second at t+0.5: each sliding 2s window sees 2 events
        for t in range(8):
            engine.sim.schedule_at(
                t + 0.55, engine.ingest, job.name,
                job.graph.source_stages[0], 0, [t + 0.5], [1.0], [0],
            )
        engine.run(until=20.0)
        values = engine.metrics.job(job.name).output_values
        # steady-state windows (not the first) each count 2 events
        assert values[1:] and all(v == 2.0 for v in values[1:])


class TestEventTimeRegression:
    def test_progress_map_learns_ingestion_lag(self):
        job = make_latency_sensitive_job("job", source_count=1)
        job.ingestion_delay = 0.25
        engine = StreamEngine(EngineConfig(scheduler="cameo"), [job])
        drive_all_sources(engine, job, lambda s, i: PeriodicArrivals(0.1),
                          sizer=FixedBatchSize(100), until=10.0)
        engine.run(until=12.0)
        source_rt = next(op for op in engine.operator_runtimes
                         if op.stage.name == "source")
        coefficients = source_rt.converter.progress_map.coefficients()
        assert coefficients is not None
        alpha, gamma = coefficients
        assert alpha == pytest.approx(1.0, abs=0.05)
        assert gamma == pytest.approx(0.25, abs=0.1)

    def test_outputs_unaffected_by_delay_magnitude(self):
        def run(delay):
            job = make_latency_sensitive_job("job", source_count=2)
            job.ingestion_delay = delay
            engine = StreamEngine(EngineConfig(scheduler="cameo", seed=4), [job])
            drive_all_sources(engine, job, lambda s, i: PeriodicArrivals(0.5),
                              sizer=FixedBatchSize(100), until=10.0)
            engine.run(until=15.0)
            return engine.metrics.job("job").output_count

        assert run(0.01) == run(0.5)


class TestNoiseRobustness:
    def test_profile_noise_run_completes(self):
        job = make_latency_sensitive_job("job", source_count=2)
        engine = StreamEngine(
            EngineConfig(scheduler="cameo", profile_noise_sigma=0.5, seed=3), [job]
        )
        drive_all_sources(engine, job, lambda s, i: PeriodicArrivals(0.5),
                          sizer=FixedBatchSize(100), until=8.0)
        engine.run(until=12.0)
        assert engine.metrics.job("job").output_count > 0


class TestSemanticsAblation:
    def test_results_identical_with_and_without_semantics(self):
        """Semantics awareness changes *when* work runs, never *what* it
        computes."""
        def run(semantics):
            job = make_latency_sensitive_job("job", source_count=2)
            engine = StreamEngine(
                EngineConfig(scheduler="cameo", use_query_semantics=semantics,
                             seed=6),
                [job],
            )
            drive_all_sources(engine, job, lambda s, i: PeriodicArrivals(0.5),
                              sizer=FixedBatchSize(100), until=8.0)
            engine.run(until=14.0)
            return sorted(engine.metrics.job("job").output_values)

        assert run(True) == pytest.approx(run(False))


class TestViolationAccounting:
    def test_start_violations_counted_under_overload(self):
        job = make_latency_sensitive_job("job", source_count=4,
                                         latency_constraint=0.05)
        engine = StreamEngine(
            EngineConfig(scheduler="cameo", nodes=1, workers_per_node=1, seed=8),
            [job],
        )
        drive_all_sources(engine, job, lambda s, i: PeriodicArrivals(1 / 120.0),
                          sizer=FixedBatchSize(1000), until=10.0)
        engine.run(until=12.0)
        assert engine.metrics.job("job").start_violations > 0

    def test_no_violations_when_idle(self):
        job = make_latency_sensitive_job("job", source_count=2,
                                         latency_constraint=5.0)
        engine = StreamEngine(EngineConfig(scheduler="cameo", seed=8), [job])
        drive_all_sources(engine, job, lambda s, i: PeriodicArrivals(1.0),
                          sizer=FixedBatchSize(100), until=5.0)
        engine.run(until=8.0)
        assert engine.metrics.job("job").start_violations == 0


class TestUnionPipeline:
    def test_union_does_not_lose_slow_channel_data(self):
        """A union forwards its *frontier* as progress: the fast source must
        not close downstream windows before the slow source's data lands."""
        job = (
            QueryBuilder("union")
            .source(parallelism=1)
            .source(parallelism=1)
            .union()
            .tumbling_agg(1.0, agg="count", by_key=False)
            .sink()
            .build(latency_constraint=10.0)
        )
        engine = StreamEngine(EngineConfig(scheduler="cameo"), [job])
        fast, slow = job.graph.source_stages
        # fast source: events in every window, delivered promptly
        for t in range(6):
            engine.sim.schedule_at(t + 0.2, engine.ingest, job.name, fast, 0,
                                   [t + 0.1], [1.0], [0])
        # slow source: window-0 data arrives very late (at t=4.5)
        engine.sim.schedule_at(4.5, engine.ingest, job.name, slow, 0,
                               [0.5], [1.0], [0])
        engine.sim.schedule_at(5.6, engine.ingest, job.name, slow, 0,
                               [5.5], [1.0], [0])
        engine.run(until=12.0)
        values = engine.metrics.job(job.name).output_values
        # window [0,1) must contain BOTH sources' events (2), despite the
        # fast source reaching progress 5 long before the slow one
        assert values and values[0] == 2.0


class TestDiamondDataflow:
    def test_fanout_stages_both_receive_and_sink_merges(self):
        from repro.dataflow.graph import DataflowGraph, StageSpec

        stages = [
            StageSpec(name="source", kind="source", parallelism=1),
            StageSpec(name="double", kind="map", fn=lambda v: v * 2),
            StageSpec(name="triple", kind="map", fn=lambda v: v * 3),
            StageSpec(name="agg", kind="window_agg", parallelism=1,
                      window=WindowSpec.tumbling(1.0), agg="sum", by_key=False),
            StageSpec(name="sink", kind="sink"),
        ]
        edges = [("source", "double"), ("source", "triple"),
                 ("double", "agg"), ("triple", "agg"), ("agg", "sink")]
        job = JobSpec(name="diamond", latency_constraint=10.0,
                      graph=DataflowGraph(stages, edges))
        engine = StreamEngine(EngineConfig(scheduler="cameo"), [job])
        engine.sim.schedule_at(0.5, engine.ingest, job.name, "source", 0,
                               [0.4], [1.0], [0])
        engine.sim.schedule_at(1.5, engine.ingest, job.name, "source", 0,
                               [1.4], [1.0], [0])
        engine.run(until=5.0)
        values = engine.metrics.job(job.name).output_values
        # window [0,1): 1.0 doubled + 1.0 tripled = 5.0
        assert values and values[0] == pytest.approx(5.0)


class TestPolicyResultInvariance:
    def test_policies_change_order_not_results(self):
        from repro.queries import ipq1
        from repro.workloads.arrivals import PoissonArrivals

        def run(policy):
            job = ipq1(source_count=4)
            engine = StreamEngine(
                EngineConfig(scheduler="cameo", policy=policy, nodes=1,
                             workers_per_node=2, seed=14),
                [job],
            )
            drive_all_sources(engine, job, lambda s, i: PoissonArrivals(20.0),
                              sizer=FixedBatchSize(100), until=6.0)
            engine.run(until=12.0)
            return sorted(engine.metrics.job(job.name).output_values)

        llf, edf, sjf = run("llf"), run("edf"), run("sjf")
        assert llf == pytest.approx(edf)
        assert llf == pytest.approx(sjf)


class TestTimelineRecordingDefaults:
    def test_timeline_off_by_default(self):
        job = make_latency_sensitive_job("job", source_count=2)
        engine = StreamEngine(EngineConfig(scheduler="cameo"), [job])
        drive_all_sources(engine, job, lambda s, i: PeriodicArrivals(1.0),
                          sizer=FixedBatchSize(10), until=3.0)
        engine.run(until=5.0)
        assert engine.metrics.timeline == []
