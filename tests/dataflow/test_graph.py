"""Unit tests for dataflow graphs, cost models and critical paths."""

import pytest

from repro.dataflow.graph import (
    CostModel,
    DataflowGraph,
    GraphValidationError,
    StageSpec,
    linear_graph,
)
from repro.dataflow.windows import WindowSpec


def stage(name, kind="map", **kwargs):
    defaults = dict(fn=lambda v: v) if kind in ("map", "filter") else {}
    if kind in ("window_agg", "window_join") and "window" not in kwargs:
        defaults["window"] = WindowSpec.tumbling(1.0)
    defaults.update(kwargs)
    return StageSpec(name=name, kind=kind, **defaults)


class TestCostModel:
    def test_nominal(self):
        model = CostModel(base=0.001, per_tuple=0.0001)
        assert model.nominal(0) == 0.001
        assert model.nominal(10) == pytest.approx(0.002)

    def test_sample_deterministic_without_noise(self):
        model = CostModel(base=0.001, per_tuple=0.0)
        assert model.sample(5, None) == 0.001

    def test_sample_noise_preserves_mean(self):
        import numpy as np

        model = CostModel(base=0.001, per_tuple=0.0, noise_cv=0.3)
        rng = np.random.default_rng(0)
        samples = [model.sample(0, rng) for _ in range(5000)]
        assert np.mean(samples) == pytest.approx(0.001, rel=0.05)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            CostModel(base=-1.0)
        with pytest.raises(ValueError):
            CostModel(noise_cv=-0.1)


class TestStageValidation:
    def test_unknown_kind(self):
        with pytest.raises(GraphValidationError):
            StageSpec(name="x", kind="teleport")

    def test_windowed_needs_window(self):
        with pytest.raises(GraphValidationError):
            StageSpec(name="x", kind="window_agg")

    def test_map_needs_fn(self):
        with pytest.raises(GraphValidationError):
            StageSpec(name="x", kind="map")

    def test_zero_parallelism(self):
        with pytest.raises(GraphValidationError):
            StageSpec(name="x", kind="source", parallelism=0)

    def test_bad_aggregate(self):
        with pytest.raises(GraphValidationError):
            StageSpec(name="x", kind="window_agg", window=WindowSpec.tumbling(1.0),
                      agg="median")


class TestGraphValidation:
    def test_linear_graph(self):
        graph = linear_graph([
            stage("s", kind="source"), stage("m"), stage("k", kind="sink"),
        ])
        assert graph.stage_names == ["s", "m", "k"]
        assert graph.source_stages == ["s"]
        assert graph.sink_stages == ["k"]
        assert graph.operator_count() == 3

    def test_cycle_rejected(self):
        with pytest.raises(GraphValidationError):
            DataflowGraph(
                [stage("s", kind="source"), stage("a"), stage("b"),
                 stage("k", kind="sink")],
                [("s", "a"), ("a", "b"), ("b", "a"), ("b", "k")],
            )

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(GraphValidationError):
            DataflowGraph([stage("s", kind="source"), stage("s", kind="sink")], [])

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(GraphValidationError):
            DataflowGraph([stage("s", kind="source")], [("s", "ghost")])

    def test_source_with_inputs_rejected(self):
        with pytest.raises(GraphValidationError):
            DataflowGraph(
                [stage("s", kind="source"), stage("s2", kind="source")],
                [("s", "s2")],
            )

    def test_orphan_stage_rejected(self):
        with pytest.raises(GraphValidationError):
            DataflowGraph(
                [stage("s", kind="source"), stage("m"), stage("k", kind="sink")],
                [("s", "k")],  # m has no inputs
            )

    def test_sink_with_outputs_rejected(self):
        with pytest.raises(GraphValidationError):
            DataflowGraph(
                [stage("s", kind="source"), stage("k", kind="sink"), stage("m")],
                [("s", "k"), ("k", "m")],
            )

    def test_join_needs_two_inputs(self):
        with pytest.raises(GraphValidationError):
            DataflowGraph(
                [stage("s", kind="source"), stage("j", kind="window_join"),
                 stage("k", kind="sink")],
                [("s", "j"), ("j", "k")],
            )

    def test_no_source_rejected(self):
        with pytest.raises(GraphValidationError):
            DataflowGraph([], [])

    def test_topological_order(self):
        graph = DataflowGraph(
            [stage("s", kind="source"), stage("a"), stage("b"),
             stage("k", kind="sink")],
            [("s", "a"), ("s", "b"), ("a", "k"), ("b", "k")],
        )
        order = graph.stage_names
        assert order.index("s") < order.index("a") < order.index("k")
        assert order.index("s") < order.index("b") < order.index("k")


class TestCriticalPath:
    def make_diamond(self):
        return DataflowGraph(
            [
                stage("s", kind="source", cost=CostModel(0.001, 0)),
                stage("cheap", cost=CostModel(0.002, 0)),
                stage("costly", cost=CostModel(0.010, 0)),
                stage("k", kind="sink", cost=CostModel(0.0005, 0)),
            ],
            [("s", "cheap"), ("s", "costly"), ("cheap", "k"), ("costly", "k")],
        )

    def test_sink_has_zero_path(self):
        graph = self.make_diamond()
        assert graph.critical_path_cost("k") == 0.0

    def test_max_over_branches(self):
        graph = self.make_diamond()
        # from the source: max(cheap, costly) + sink
        assert graph.critical_path_cost("s") == pytest.approx(0.010 + 0.0005)

    def test_includes_downstream_only(self):
        graph = self.make_diamond()
        assert graph.critical_path_cost("costly") == pytest.approx(0.0005)

    def test_expected_stage_cost(self):
        graph = self.make_diamond()
        assert graph.expected_stage_cost("costly", 0) == pytest.approx(0.010)

    def test_cached_results_consistent(self):
        graph = self.make_diamond()
        assert graph.critical_path_cost("s") == graph.critical_path_cost("s")

    def test_build_operator_kinds(self):
        from repro.dataflow.operators import (
            MapOperator,
            OpAddress,
            SinkOperator,
            SourceOperator,
        )

        graph = self.make_diamond()
        address = OpAddress("j", "cheap", 1)
        assert isinstance(graph.stage("s").build_operator(OpAddress("j", "s", 0)),
                          SourceOperator)
        assert isinstance(graph.stage("cheap").build_operator(address), MapOperator)
        assert graph.stage("cheap").build_operator(address).address is address
        assert isinstance(graph.stage("k").build_operator(OpAddress("j", "k", 0)),
                          SinkOperator)
