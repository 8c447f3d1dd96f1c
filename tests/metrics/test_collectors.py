"""Unit tests for metric collection."""

import math

import pytest

from repro.metrics.collectors import JobMetrics, MetricsHub


class TestJobMetrics:
    def make(self, constraint=1.0):
        return JobMetrics("job", "LS", constraint)

    def test_record_output(self):
        metrics = self.make()
        metrics.record_output(1.0, 0.5, 10, value=3.0)
        assert metrics.output_count == 1
        assert metrics.output_values == [3.0]

    def test_success_rate(self):
        metrics = self.make(constraint=1.0)
        metrics.record_output(1.0, 0.5, 1)
        metrics.record_output(2.0, 1.5, 1)
        assert metrics.success_rate() == 0.5
        assert metrics.on_time_count() == 1

    def test_success_rate_empty_is_nan(self):
        assert math.isnan(self.make().success_rate())

    def test_completion_success_counts_missing_outputs(self):
        metrics = self.make(constraint=1.0)
        metrics.record_output(1.0, 0.5, 1)
        assert metrics.completion_success_rate(4) == 0.25
        assert metrics.completion_success_rate(1) == 1.0  # capped

    def test_throughput_uses_source_consumption(self):
        metrics = self.make()
        metrics.tuples_processed = 500
        assert metrics.throughput(10.0) == 50.0

    def test_output_rate(self):
        metrics = self.make()
        metrics.record_output(1.0, 0.1, 200)
        assert metrics.output_rate(10.0) == 20.0

    def test_latency_timeline_buckets(self):
        metrics = self.make()
        metrics.record_output(0.5, 0.1, 1)
        metrics.record_output(0.9, 0.3, 1)
        metrics.record_output(2.1, 0.5, 1)
        timeline = metrics.latency_timeline(1.0)
        assert timeline == [(0.0, pytest.approx(0.2)), (2.0, pytest.approx(0.5))]

    def test_source_rate_timeline(self):
        metrics = self.make()
        metrics.source_events = [(0.1, 100), (0.7, 100), (1.5, 300)]
        timeline = metrics.source_rate_timeline(1.0)
        assert timeline == [(0.0, 200.0), (1.0, 300.0)]


class TestMetricsHub:
    def make(self):
        hub = MetricsHub()
        hub.register_job("ls1", "LS", 1.0)
        hub.register_job("ls2", "LS", 1.0)
        hub.register_job("ba1", "BA", 100.0)
        return hub

    def test_duplicate_registration_rejected(self):
        hub = self.make()
        with pytest.raises(ValueError):
            hub.register_job("ls1", "LS", 1.0)

    def test_group_filtering(self):
        hub = self.make()
        assert {m.name for m in hub.jobs_in_group("LS")} == {"ls1", "ls2"}
        assert {m.name for m in hub.jobs_in_group("BA")} == {"ba1"}

    def test_group_latencies_pooled(self):
        hub = self.make()
        hub.job("ls1").record_output(1.0, 0.1, 1)
        hub.job("ls2").record_output(1.0, 0.3, 1)
        hub.job("ba1").record_output(1.0, 9.0, 1)
        assert sorted(hub.group_latencies("LS")) == [0.1, 0.3]

    def test_group_success_rate_weighted_by_outputs(self):
        hub = self.make()
        hub.job("ls1").record_output(1.0, 0.5, 1)   # ok
        hub.job("ls1").record_output(1.0, 2.0, 1)   # miss
        hub.job("ls2").record_output(1.0, 0.5, 1)   # ok
        assert hub.group_success_rate("LS") == pytest.approx(2 / 3)

    def test_utilization(self):
        hub = self.make()
        hub.record_worker_busy(0, 0, 5.0)
        hub.record_worker_busy(0, 1, 10.0)
        assert hub.utilization(10.0) == pytest.approx(0.75)

    def test_utilization_without_workers_is_nan(self):
        assert math.isnan(MetricsHub().utilization(10.0))


class TestBreakdown:
    def test_running_stats_per_stage(self):
        from repro.metrics.collectors import JobMetrics

        metrics = JobMetrics("j", "LS", 1.0)
        metrics.record_queueing("source", 0.002)
        metrics.record_queueing("source", 0.004)
        metrics.record_queueing("agg", 0.010)
        metrics.record_execution("source", 0.001)
        rows = metrics.breakdown()
        assert [r[0] for r in rows] == ["agg", "source"]
        source = rows[1]
        assert source[1] == pytest.approx(0.003)  # mean queueing
        assert source[2] == pytest.approx(0.004)  # max queueing
        assert source[3] == pytest.approx(0.001)  # mean execution

    def test_running_stat_math(self):
        from repro.metrics.stats import RunningStat

        stat = RunningStat()
        for value in (1.0, 2.0, 3.0, 4.0):
            stat.add(value)
        assert stat.count == 4
        assert stat.mean == pytest.approx(2.5)
        assert stat.max == 4.0
        assert stat.std == pytest.approx(1.118, abs=1e-3)


class TestMerge:
    """The mp fold of worker metrics (`JobMetrics.merge`/`MetricsHub.merge`)."""

    @pytest.mark.parametrize("fresh", (JobMetrics("job", "LS", 1.0),
                                       MetricsHub()),
                             ids=("JobMetrics", "MetricsHub"))
    def test_every_attribute_has_a_fold_rule(self, fresh):
        """A field added without a rule must fail here, not read 0 on mp."""
        rules = (fresh._MERGE_EXTEND + fresh._MERGE_SUM + fresh._MERGE_MAX
                 + fresh._MERGE_BY_HAND + fresh._NOT_MERGED)
        assert len(rules) == len(set(rules)), "an attribute has two rules"
        assert set(rules) == set(vars(fresh))

    def test_merge_extends_sums_and_maxes(self):
        into, other = MetricsHub(), MetricsHub()
        for hub in (into, other):
            hub.register_job("job", "LS", 1.0)
        into.job("job").record_output(1.0, 0.5, 10, value=3.0)
        into.job("job").max_source_mailbox = 7
        into.job("job").record_queueing("map", 0.25)
        into.record_worker_busy(0, 0, 1.5)
        into.retransmit_backoff_time = 0.5
        job = other.job("job")
        job.record_output(2.0, 0.25, 5, value=1.0)
        job.late_tuples = 4
        job.max_source_mailbox = 3
        job.record_queueing("map", 0.75)
        job.record_execution("sink", 0.125)
        other.record_timeline_point(2.0, "job", "map", 0, 17, 1.5)
        other.record_worker_busy(1, 0, 2.5)
        other.total_messages = 9
        other.retransmit_backoff_time = 0.25
        into.merge(other)
        merged = into.job("job")
        assert merged.latencies == [0.5, 0.25]
        assert merged.output_values == [3.0, 1.0]
        assert merged.late_tuples == 4 and merged.max_source_mailbox == 7
        assert merged.queueing["map"].count == 2
        assert merged.queueing["map"].mean == pytest.approx(0.5)
        assert merged.execution["sink"].count == 1
        assert into.timeline == [(2.0, "job", "map", 0, 17, 1.5)]
        assert into.worker_busy == {(0, 0): 1.5, (1, 0): 2.5}
        assert into.total_messages == 9
        assert into.retransmit_backoff_time == 0.75
