"""Tenant job factories for the evaluation's two control groups (§6).

* **Group 1 — Latency Sensitive (LS)**: sparse input (1 msg/s per source,
  1000 events/msg), short aggregation windows (1 s), strict latency
  constraints.  Dashboards, SLA-bound pipelines.
* **Group 2 — Bulk Analytics (BA)**: higher and variable input volume,
  long aggregation windows (10 s), lax latency constraints.

Jobs are multi-stage windowed aggregations parallelised into operator
groups, mirroring "our queries feature multiple stages of windowed
aggregation parallelized into a group of operators".
"""

from __future__ import annotations

from typing import Optional

from repro.dataflow.graph import (
    AGG_COST,
    JOIN_COST,
    SINK_COST,
    SOURCE_COST,
    CostModel,
    DataflowGraph,
    StageSpec,
)
from repro.dataflow.jobs import (
    GROUP_BULK_ANALYTICS,
    GROUP_LATENCY_SENSITIVE,
    JobSpec,
)
from repro.dataflow.windows import WindowSpec


def make_aggregation_job(
    name: str,
    group: str = GROUP_LATENCY_SENSITIVE,
    source_count: int = 8,
    window: float = 1.0,
    slide: Optional[float] = None,
    agg_stages: int = 2,
    agg_parallelism: int = 2,
    latency_constraint: float = 0.8,
    agg: str = "sum",
    time_domain: str = "event",
    ingestion_delay: float = 0.05,
    token_rate: Optional[float] = None,
    cost_scale: float = 1.0,
) -> JobSpec:
    """A multi-stage windowed aggregation job.

    Stage layout (matching the 4-stage pipelines of Fig. 7c):
    ``source -> pre_agg (key-partitioned) -> ... -> final_agg -> sink``.
    The first aggregation stage uses the given window; later stages use the
    same window over the partial results.  ``slide`` turns stage-1 windows
    sliding (IPQ2-style); later stages stay tumbling on the slide grid.
    """
    if agg_stages < 1:
        raise ValueError("need at least one aggregation stage")
    scale = cost_scale

    def scaled(cost: CostModel) -> CostModel:
        return CostModel(cost.base * scale, cost.per_tuple * scale)

    stages = [
        StageSpec(
            name="source",
            kind="source",
            parallelism=source_count,
            cost=scaled(SOURCE_COST),
        )
    ]
    first_window = (
        WindowSpec.sliding(window, slide) if slide else WindowSpec.tumbling(window)
    )
    trigger_grid = first_window.slide
    for stage_index in range(agg_stages):
        is_first = stage_index == 0
        is_last = stage_index == agg_stages - 1
        stages.append(
            StageSpec(
                name=f"agg{stage_index}",
                kind="window_agg",
                parallelism=1 if is_last else agg_parallelism,
                cost=scaled(AGG_COST),
                window=first_window if is_first else WindowSpec.tumbling(trigger_grid),
                agg=agg,
                by_key=True,
                key_partitioned=not is_last and agg_parallelism > 1,
            )
        )
    stages.append(StageSpec(name="sink", kind="sink", parallelism=1, cost=scaled(SINK_COST)))
    edges = [(a.name, b.name) for a, b in zip(stages, stages[1:])]
    return JobSpec(
        name=name,
        graph=DataflowGraph(stages, edges),
        latency_constraint=latency_constraint,
        group=group,
        time_domain=time_domain,
        ingestion_delay=ingestion_delay,
        token_rate=token_rate,
    )


def make_latency_sensitive_job(
    name: str,
    source_count: int = 8,
    latency_constraint: float = 0.8,
    window: float = 1.0,
    **kwargs,
) -> JobSpec:
    """Group 1 job: 1 s windows, strict latency target (§6 default 800 ms)."""
    return make_aggregation_job(
        name,
        group=GROUP_LATENCY_SENSITIVE,
        source_count=source_count,
        window=window,
        latency_constraint=latency_constraint,
        **kwargs,
    )


def make_bulk_analytics_job(
    name: str,
    source_count: int = 8,
    latency_constraint: float = 7200.0,
    window: float = 10.0,
    **kwargs,
) -> JobSpec:
    """Group 2 job: 10 s windows, lax (7200 s) latency constraint (§6.2)."""
    return make_aggregation_job(
        name,
        group=GROUP_BULK_ANALYTICS,
        source_count=source_count,
        window=window,
        latency_constraint=latency_constraint,
        **kwargs,
    )


def make_join_job(
    name: str,
    group: str = GROUP_LATENCY_SENSITIVE,
    source_count: int = 4,
    window: float = 1.0,
    latency_constraint: float = 0.8,
    time_domain: str = "event",
    ingestion_delay: float = 0.05,
) -> JobSpec:
    """IPQ4-style job: windowed join of two streams, then tumbling
    aggregation — "summarizes errors from log events via a windowed join of
    two event streams, followed by aggregation on a tumbling window"."""
    window_spec = WindowSpec.tumbling(window)
    stages = [
        StageSpec(name="source_a", kind="source", parallelism=source_count, cost=SOURCE_COST),
        StageSpec(name="source_b", kind="source", parallelism=source_count, cost=SOURCE_COST),
        StageSpec(
            name="join",
            kind="window_join",
            parallelism=1,
            cost=JOIN_COST,
            window=window_spec,
        ),
        StageSpec(
            name="agg",
            kind="window_agg",
            parallelism=1,
            cost=AGG_COST,
            window=window_spec,
            agg="sum",
        ),
        StageSpec(name="sink", kind="sink", parallelism=1, cost=SINK_COST),
    ]
    edges = [
        ("source_a", "join"),
        ("source_b", "join"),
        ("join", "agg"),
        ("agg", "sink"),
    ]
    return JobSpec(
        name=name,
        graph=DataflowGraph(stages, edges),
        latency_constraint=latency_constraint,
        group=group,
        time_domain=time_domain,
        ingestion_delay=ingestion_delay,
    )
