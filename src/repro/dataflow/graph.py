"""Dataflow graphs: stages, edges, cost models, critical paths.

A dataflow job is a DAG of *stages* (§4.1); each stage runs a user-defined
function and is parallelised into ``parallelism`` operators.  The graph also
carries each stage's execution-cost model, which stands in for real
execution: a message spends its stage's nominal cost.  The paper obtains
per-operator costs ``C_oM`` by profiling; the nominal costs also
warm-start the profiles and give the static critical-path estimate
``C_path`` (Eq. 2) for comparison in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.dataflow.operators import (
    AGGREGATES,
    FilterOperator,
    MapOperator,
    OpAddress,
    Operator,
    SinkOperator,
    SourceOperator,
    WindowedAggregateOperator,
    WindowedJoinOperator,
)
from repro.dataflow.windows import WindowSpec

STAGE_KINDS = ("source", "map", "filter", "window_agg", "window_join", "sink")


class GraphValidationError(Exception):
    """Raised when a dataflow graph is structurally invalid."""


@dataclass(frozen=True)
class CostModel:
    """Per-message execution cost: ``base + per_tuple * n``."""

    base: float = 0.0002
    per_tuple: float = 0.0000002

    def __post_init__(self):
        if self.base < 0 or self.per_tuple < 0:
            raise ValueError("cost components must be non-negative")

    def nominal(self, tuple_count: int) -> float:
        """Execution time of a message of ``tuple_count`` tuples."""
        return self.base + self.per_tuple * tuple_count


#: nominal per-stage cost models (seconds) of the tenant jobs and the
#: query builder's defaults.  Calibrated so a 1000-event message takes
#: ~0.7-1.5 ms — comfortably above the 1 ms re-scheduling grain, as in the
#: paper ("this grain is generally shorter than a message's execution
#: time", §6).
SOURCE_COST = CostModel(base=0.0002, per_tuple=5e-7)
AGG_COST = CostModel(base=0.0005, per_tuple=1e-6)
SINK_COST = CostModel(base=0.0001, per_tuple=1e-7)
JOIN_COST = CostModel(base=0.001, per_tuple=2e-6)


@dataclass
class StageSpec:
    """Declaration of one dataflow stage.

    ``key_partitioned`` controls how upstream stages route to this stage:
    by key hash across the parallel operators (with empty progress
    heartbeats to the other partitions) or whole-batch round-robin.
    """

    name: str
    kind: str
    parallelism: int = 1
    cost: CostModel = field(default_factory=CostModel)
    window: Optional[WindowSpec] = None
    agg: str = "sum"
    by_key: bool = True
    fn: Optional[Callable] = None
    key_partitioned: bool = False

    def __post_init__(self):
        if self.kind not in STAGE_KINDS:
            raise GraphValidationError(f"unknown stage kind {self.kind!r}")
        if self.parallelism < 1:
            raise GraphValidationError(f"stage {self.name!r}: parallelism must be >= 1")
        if self.is_windowed and self.window is None:
            raise GraphValidationError(f"stage {self.name!r}: windowed stage needs a WindowSpec")
        if self.kind == "window_agg" and self.agg not in AGGREGATES:
            raise GraphValidationError(f"stage {self.name!r}: unknown aggregate {self.agg!r}")
        if self.kind in ("map", "filter") and self.fn is None:
            raise GraphValidationError(f"stage {self.name!r}: {self.kind} stage needs fn")

    @property
    def is_windowed(self) -> bool:
        return self.kind in ("window_agg", "window_join")

    def build_operator(self, address: OpAddress) -> Operator:
        """The operator instance at ``address`` (a job's instance of this
        stage).  The operator keeps the given object as its address, so
        the caller's dict keys and every message it sends share one."""
        if self.kind == "source":
            return SourceOperator(address)
        if self.kind == "map":
            return MapOperator(address, self.fn)
        if self.kind == "filter":
            return FilterOperator(address, self.fn)
        if self.kind == "window_agg":
            return WindowedAggregateOperator(address, self.window, self.agg, self.by_key)
        if self.kind == "window_join":
            return WindowedJoinOperator(address, self.window)
        if self.kind == "sink":
            return SinkOperator(address)
        raise GraphValidationError(f"unknown stage kind {self.kind!r}")  # pragma: no cover


class DataflowGraph:
    """An immutable-after-validation DAG of :class:`StageSpec`."""

    def __init__(self, stages: Iterable[StageSpec], edges: Iterable[tuple[str, str]]):
        self._stages: dict[str, StageSpec] = {}
        for stage in stages:
            if stage.name in self._stages:
                raise GraphValidationError(f"duplicate stage name {stage.name!r}")
            self._stages[stage.name] = stage
        self._edges: list[tuple[str, str]] = list(edges)
        self._down: dict[str, list[str]] = {name: [] for name in self._stages}
        self._up: dict[str, list[str]] = {name: [] for name in self._stages}
        for src, dst in self._edges:
            if src not in self._stages or dst not in self._stages:
                raise GraphValidationError(f"edge ({src!r}, {dst!r}) references unknown stage")
            self._down[src].append(dst)
            self._up[dst].append(src)
        self._order = self._validate()
        self._cpath_cache: dict[tuple[str, int], float] = {}

    # -- structure ---------------------------------------------------------

    @property
    def stage_names(self) -> list[str]:
        """Stage names in a topological order."""
        return list(self._order)

    def stage(self, name: str) -> StageSpec:
        return self._stages[name]

    def downstream(self, name: str) -> list[str]:
        return list(self._down[name])

    def upstream(self, name: str) -> list[str]:
        return list(self._up[name])

    @property
    def source_stages(self) -> list[str]:
        return [n for n in self._order if self._stages[n].kind == "source"]

    @property
    def sink_stages(self) -> list[str]:
        return [n for n in self._order if not self._down[n]]

    def operator_count(self) -> int:
        return sum(s.parallelism for s in self._stages.values())

    def _validate(self) -> list[str]:
        # Kahn's algorithm: topological sort doubling as cycle detection.
        indegree = {name: len(self._up[name]) for name in self._stages}
        frontier = sorted(name for name, deg in indegree.items() if deg == 0)
        order: list[str] = []
        while frontier:
            name = frontier.pop(0)
            order.append(name)
            for succ in self._down[name]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    frontier.append(succ)
        if len(order) != len(self._stages):
            raise GraphValidationError("dataflow graph has a cycle")
        for name, stage in self._stages.items():
            ups, downs = self._up[name], self._down[name]
            if stage.kind == "source" and ups:
                raise GraphValidationError(f"source stage {name!r} cannot have inputs")
            if stage.kind != "source" and not ups:
                raise GraphValidationError(f"non-source stage {name!r} has no inputs")
            if stage.kind == "sink" and downs:
                raise GraphValidationError(f"sink stage {name!r} cannot have outputs")
            if stage.kind == "window_join" and len(ups) != 2:
                raise GraphValidationError(
                    f"join stage {name!r} needs exactly 2 upstream stages, has {len(ups)}"
                )
        if not any(self._stages[n].kind == "source" for n in order):
            raise GraphValidationError("graph has no source stage")
        if not any(not self._down[n] for n in order):
            raise GraphValidationError("graph has no sink stage")
        return order

    # -- static cost estimates ----------------------------------------------

    def expected_stage_cost(self, name: str, tuples_hint: int = 0) -> float:
        return self._stages[name].cost.nominal(tuples_hint)

    def critical_path_cost(self, name: str, tuples_hint: int = 0) -> float:
        """Static estimate of ``C_path`` from stage ``name`` (exclusive) to
        any sink: the max over downstream paths of summed nominal costs
        (Eq. 2 of the paper uses the profiled equivalent)."""
        key = (name, tuples_hint)
        cached = self._cpath_cache.get(key)
        if cached is not None:
            return cached
        best = 0.0
        for succ in self._down[name]:
            candidate = self.expected_stage_cost(succ, tuples_hint) + self.critical_path_cost(
                succ, tuples_hint
            )
            best = max(best, candidate)
        self._cpath_cache[key] = best
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataflowGraph(stages={self.stage_names}, edges={self._edges})"


def linear_graph(stages: list[StageSpec]) -> DataflowGraph:
    """Convenience: chain the given stages in order."""
    edges = [(a.name, b.name) for a, b in zip(stages, stages[1:])]
    return DataflowGraph(stages, edges)
