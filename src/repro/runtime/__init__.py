"""Runtime: binds dataflow jobs to the simulated cluster under a scheduler.

Layered per ``docs/architecture.md``: :class:`TopologyBuilder` constructs
the wiring plan, :class:`NodeRuntime` dispatches work on each node,
:class:`Transport` moves messages between operators, and
:class:`OperatorLifecycle` reconfigures the running topology.
:class:`StreamEngine` is the façade composing the four.
"""

from repro.runtime.baselines import FifoRunQueue, OrleansRunQueue
from repro.runtime.config import EngineConfig
from repro.runtime.engine import StreamEngine
from repro.runtime.lifecycle import OperatorLifecycle
from repro.runtime.node import NodeRuntime
from repro.runtime.placement import Placement
from repro.runtime.topology import (
    OperatorRuntime,
    Route,
    TopologyBuilder,
    WiringPlan,
)
from repro.runtime.transport import Transport
from repro.runtime.workers import Worker

__all__ = [
    "EngineConfig",
    "FifoRunQueue",
    "NodeRuntime",
    "OperatorLifecycle",
    "OperatorRuntime",
    "OrleansRunQueue",
    "Placement",
    "Route",
    "StreamEngine",
    "TopologyBuilder",
    "Transport",
    "WiringPlan",
    "Worker",
]
