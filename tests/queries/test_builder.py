"""Unit tests for the fluent query builder."""

import pytest

from repro.queries.builder import QueryBuildError, QueryBuilder
from repro.dataflow.windows import WindowSpec


class TestLinearQueries:
    def test_source_agg_sink(self):
        job = (
            QueryBuilder("q")
            .source(parallelism=4)
            .tumbling_agg(1.0, parallelism=2)
            .sink()
            .build(latency_constraint=0.5)
        )
        assert job.name == "q"
        assert job.latency_constraint == 0.5
        names = job.graph.stage_names
        assert names[0].startswith("source")
        assert names[-1].startswith("sink")
        assert job.graph.stage(names[1]).key_partitioned

    def test_map_and_filter_stages(self):
        job = (
            QueryBuilder("q")
            .source()
            .map(lambda v: v * 2)
            .filter(lambda v: v > 0)
            .tumbling_agg(1.0)
            .sink()
            .build(latency_constraint=1.0)
        )
        kinds = [job.graph.stage(n).kind for n in job.graph.stage_names]
        assert kinds == ["source", "map", "filter", "window_agg", "sink"]

    def test_sliding_agg(self):
        job = (
            QueryBuilder("q").source().sliding_agg(2.0, 0.5).sink()
            .build(latency_constraint=1.0)
        )
        window = job.graph.stage(job.graph.stage_names[1]).window
        assert window == WindowSpec.sliding(2.0, 0.5)


class TestJoinQueries:
    def test_two_source_join(self):
        job = (
            QueryBuilder("q")
            .source(parallelism=2)
            .source(parallelism=2)
            .join(WindowSpec.tumbling(1.0))
            .tumbling_agg(1.0)
            .sink()
            .build(latency_constraint=1.0)
        )
        join_stage = next(n for n in job.graph.stage_names if n.startswith("join"))
        assert len(job.graph.upstream(join_stage)) == 2

    def test_join_requires_two_tails(self):
        with pytest.raises(QueryBuildError):
            QueryBuilder("q").source().join(WindowSpec.tumbling(1.0))


class TestBuilderErrors:
    def test_stage_before_source_rejected(self):
        with pytest.raises(QueryBuildError):
            QueryBuilder("q").tumbling_agg(1.0)

    def test_build_before_sink_rejected(self):
        with pytest.raises(QueryBuildError):
            QueryBuilder("q").source().build(latency_constraint=1.0)

    def test_stage_after_sink_rejected(self):
        builder = QueryBuilder("q").source().sink()
        with pytest.raises(QueryBuildError):
            builder.map(lambda v: v)


class TestTopKAndUnion:
    def test_union_merges_tails(self):
        job = (
            QueryBuilder("q")
            .source(parallelism=1)
            .source(parallelism=1)
            .union()
            .tumbling_agg(1.0)
            .sink()
            .build(latency_constraint=1.0)
        )
        union_stage = next(n for n in job.graph.stage_names if n.startswith("union"))
        assert len(job.graph.upstream(union_stage)) == 2

    def test_union_requires_two_tails(self):
        with pytest.raises(QueryBuildError):
            QueryBuilder("q").source().union()
