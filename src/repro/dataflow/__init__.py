"""Streaming dataflow substrate: events, messages, windows, operators, graphs."""

from repro.dataflow.events import Event, EventBatch
from repro.dataflow.graph import (
    CostModel,
    DataflowGraph,
    GraphValidationError,
    StageSpec,
    linear_graph,
)
from repro.dataflow.jobs import (
    GROUP_BULK_ANALYTICS,
    GROUP_LATENCY_SENSITIVE,
    JobSpec,
)
from repro.dataflow.messages import Message, reset_message_ids
from repro.dataflow.operators import (
    FilterOperator,
    MapOperator,
    OpAddress,
    Operator,
    SinkOperator,
    SourceOperator,
    WindowedAggregateOperator,
    WindowedJoinOperator,
    WindowedTopKOperator,
)
from repro.dataflow.progress import ProgressTracker, merged_frontier
from repro.dataflow.windows import WindowSpec

__all__ = [
    "CostModel",
    "DataflowGraph",
    "Event",
    "EventBatch",
    "FilterOperator",
    "GraphValidationError",
    "GROUP_BULK_ANALYTICS",
    "GROUP_LATENCY_SENSITIVE",
    "JobSpec",
    "MapOperator",
    "Message",
    "OpAddress",
    "Operator",
    "ProgressTracker",
    "SinkOperator",
    "SourceOperator",
    "StageSpec",
    "WindowSpec",
    "WindowedAggregateOperator",
    "WindowedJoinOperator",
    "WindowedTopKOperator",
    "linear_graph",
    "merged_frontier",
    "reset_message_ids",
]
