"""Fluent query builder: compose linear dataflows without hand-writing graphs.

Covers the common query shapes in the paper's evaluation — chains of maps,
filters and windowed aggregations over one source — and a ``join`` entry
point for two-source queries (IPQ4).

Example::

    job = (
        QueryBuilder("revenue")
        .source(parallelism=8)
        .filter(lambda v: v > 0)
        .tumbling_agg(1.0, agg="sum", parallelism=2)
        .tumbling_agg(1.0, agg="sum")
        .sink()
        .build(latency_constraint=0.8)
    )
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.dataflow.graph import (
    AGG_COST,
    JOIN_COST,
    SINK_COST,
    SOURCE_COST,
    CostModel,
    DataflowGraph,
    StageSpec,
)
from repro.dataflow.jobs import GROUP_LATENCY_SENSITIVE, JobSpec
from repro.dataflow.windows import WindowSpec

_DEFAULT_COSTS = {
    "source": SOURCE_COST,
    "map": CostModel(base=0.0002, per_tuple=5e-7),
    "filter": CostModel(base=0.0002, per_tuple=4e-7),
    "window_agg": AGG_COST,
    "window_join": JOIN_COST,
    "sink": SINK_COST,
}


class QueryBuildError(Exception):
    """Raised on invalid builder usage (e.g. sink before source)."""


class QueryBuilder:
    """Accumulates stages; ``build`` produces the :class:`JobSpec`."""

    def __init__(self, name: str):
        self.name = name
        self._stages: list[StageSpec] = []
        self._edges: list[tuple[str, str]] = []
        self._tails: list[str] = []  # stages awaiting a downstream
        self._counter = 0
        self._sealed = False

    # -- internals -----------------------------------------------------------

    def _next_name(self, kind: str) -> str:
        self._counter += 1
        return f"{kind}{self._counter}"

    def _append(self, stage: StageSpec) -> "QueryBuilder":
        if self._sealed:
            raise QueryBuildError("cannot add stages after sink()")
        if stage.kind != "source" and not self._tails:
            raise QueryBuildError("add a source before other stages")
        self._stages.append(stage)
        if stage.kind != "source":
            for tail in self._tails:
                self._edges.append((tail, stage.name))
            self._tails = [stage.name]
        else:
            self._tails.append(stage.name)
        return self

    # -- stage constructors ----------------------------------------------------

    def source(self, parallelism: int = 4, cost: Optional[CostModel] = None) -> "QueryBuilder":
        return self._append(
            StageSpec(
                name=self._next_name("source"),
                kind="source",
                parallelism=parallelism,
                cost=cost or _DEFAULT_COSTS["source"],
            )
        )

    def map(self, fn: Callable, parallelism: int = 1, cost: Optional[CostModel] = None) -> "QueryBuilder":
        return self._append(
            StageSpec(
                name=self._next_name("map"),
                kind="map",
                parallelism=parallelism,
                fn=fn,
                cost=cost or _DEFAULT_COSTS["map"],
            )
        )

    def filter(self, predicate: Callable, parallelism: int = 1, cost: Optional[CostModel] = None) -> "QueryBuilder":
        return self._append(
            StageSpec(
                name=self._next_name("filter"),
                kind="filter",
                parallelism=parallelism,
                fn=predicate,
                cost=cost or _DEFAULT_COSTS["filter"],
            )
        )

    def window_agg(
        self,
        window: WindowSpec,
        agg: str = "sum",
        parallelism: int = 1,
        by_key: bool = True,
        cost: Optional[CostModel] = None,
    ) -> "QueryBuilder":
        return self._append(
            StageSpec(
                name=self._next_name("agg"),
                kind="window_agg",
                parallelism=parallelism,
                window=window,
                agg=agg,
                by_key=by_key,
                key_partitioned=parallelism > 1,
                cost=cost or _DEFAULT_COSTS["window_agg"],
            )
        )

    def tumbling_agg(self, size: float, **kwargs) -> "QueryBuilder":
        return self.window_agg(WindowSpec.tumbling(size), **kwargs)

    def union(self) -> "QueryBuilder":
        """Merge all current tails into one stream (identity map stage).

        Any stage accepts multiple upstream stages; union makes the merge
        explicit so later stages have a single tail."""
        if len(self._tails) < 2:
            raise QueryBuildError("union requires at least two upstream tails")
        return self._append(
            StageSpec(
                name=self._next_name("union"),
                kind="map",
                parallelism=1,
                fn=lambda values: values,
                cost=_DEFAULT_COSTS["map"],
            )
        )

    def sliding_agg(self, size: float, slide: float, **kwargs) -> "QueryBuilder":
        return self.window_agg(WindowSpec.sliding(size, slide), **kwargs)

    def join(self, window: WindowSpec, cost: Optional[CostModel] = None) -> "QueryBuilder":
        """Windowed equi-join of the two current tails (call after two
        ``source`` invocations)."""
        if len(self._tails) != 2:
            raise QueryBuildError("join requires exactly two upstream tails")
        return self._append(
            StageSpec(
                name=self._next_name("join"),
                kind="window_join",
                parallelism=1,
                window=window,
                cost=cost or _DEFAULT_COSTS["window_join"],
            )
        )

    def sink(self, cost: Optional[CostModel] = None) -> "QueryBuilder":
        self._append(
            StageSpec(
                name=self._next_name("sink"),
                kind="sink",
                parallelism=1,
                cost=cost or _DEFAULT_COSTS["sink"],
            )
        )
        self._sealed = True
        return self

    # -- completion ------------------------------------------------------------

    def build(
        self,
        latency_constraint: float,
        group: str = GROUP_LATENCY_SENSITIVE,
        time_domain: str = "event",
        ingestion_delay: float = 0.05,
        token_rate: Optional[float] = None,
    ) -> JobSpec:
        if not self._sealed:
            raise QueryBuildError("call sink() before build()")
        return JobSpec(
            name=self.name,
            graph=DataflowGraph(self._stages, self._edges),
            latency_constraint=latency_constraint,
            group=group,
            time_domain=time_domain,
            ingestion_delay=ingestion_delay,
            token_rate=token_rate,
        )
