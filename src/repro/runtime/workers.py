"""Worker state.

A worker models one execution thread (vCPU) of a node's thread pool.  All
scheduling logic lives in the engine; workers are state holders: what they
are running, when the current quantum started, and cumulative busy time
(for the utilization metric of Fig. 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


@dataclass
class Worker:
    """One execution thread.

    ``retired`` supports elastic pools: a retired worker finishes its
    current message and then stops taking work.  ``created_at``/
    ``retired_at`` bound its lifetime for worker-seconds accounting."""

    node_id: int
    local_id: int
    idle: bool = True
    wake_scheduled: bool = False
    retired: bool = False
    created_at: float = 0.0
    retired_at: Optional[float] = None
    quantum_start: float = 0.0
    busy_time: float = 0.0
    messages_executed: int = 0
    switches: int = 0
    current_op: Optional[Any] = None
    last_op: Optional[Any] = None

    def lifetime(self, horizon: float) -> float:
        """Seconds this worker was part of the pool within [0, horizon]."""
        end = self.retired_at if self.retired_at is not None else horizon
        return max(0.0, end - self.created_at)
