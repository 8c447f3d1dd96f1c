"""Scheduling contexts (§5.1).

Two kinds of contexts travel with messages:

* :class:`PriorityContext` (PC) flows *downstream*, attached to data
  messages.  It carries the local/global priority pair the scheduler orders
  by, plus the dataflow-defined fields the pluggable policy needs
  (``p_MF``, ``t_MF``, ``L`` — §5.3).
* :class:`ReplyContext` (RC) flows *upstream*, attached to acknowledgement
  messages.  It carries profiled costs: ``C_m`` of the replying operator and
  ``C_path``, the critical-path cost of everything downstream of it.

Contexts are plain data; all interpretation happens in the context
converter and the scheduler, which keeps both of those stateless with
respect to jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Global priority assigned to messages that must never outrank tokened
#: traffic (token policy, §5.4).  Lower value = higher priority throughout,
#: so "minimum priority" is +inf.
MIN_PRIORITY = float("inf")


@dataclass(slots=True)
class PriorityContext:
    """Priority context attached to a message before it is sent.

    Attributes:
        pri_local: orders messages *within* an operator (``p_MF`` under the
            deadline policies; interval id under the token policy).
        pri_global: orders operators against each other (the start deadline
            ``ddl_M`` under LLF/EDF; cost under SJF; token tag under the
            token policy).
        p_mf: frontier progress — logical time that triggers the target.
        t_mf: frontier time — wall-clock estimate of when the frontier
            progress is fully observed.
        latency_constraint: the job's end-to-end target ``L``.
        deadline: the computed start deadline (kept for violation metrics).
        token_interval: interval id for the token policy (optional).
    """

    pri_local: float = 0.0
    pri_global: float = 0.0
    p_mf: float = 0.0
    t_mf: float = 0.0
    latency_constraint: float = float("inf")
    deadline: float = float("inf")
    token_interval: int = -1

    # slots dataclasses only pickle under protocol >= 2 on Python 3.11;
    # PCs travel inside messages over the process backend's pipes, so
    # explicit state methods make every protocol work
    def __getstate__(self) -> tuple:
        return (
            self.pri_local, self.pri_global, self.p_mf, self.t_mf,
            self.latency_constraint, self.deadline, self.token_interval,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self.pri_local, self.pri_global, self.p_mf, self.t_mf,
            self.latency_constraint, self.deadline, self.token_interval,
        ) = state

    @property
    def priority_pair(self) -> tuple[float, float]:
        return (self.pri_local, self.pri_global)


@dataclass(slots=True)
class ReplyContext:
    """Reply context carried upstream on an acknowledgement (§5.1, Alg. 1).

    ``c_m`` is the profiled execution cost of the *replying* operator;
    ``c_path`` is the max critical-path cost strictly downstream of it.
    The upstream operator therefore computes deadlines for messages it sends
    to this operator as ``t_MF + L − c_m − c_path`` (Alg. 1 line 17).

    The scheduler also populates runtime statistics before the reply is
    delivered (queueing delay, mailbox size) — §5.2 step 6.
    """

    c_m: float = 0.0
    c_path: float = 0.0
    queueing_delay: float = 0.0
    mailbox_size: int = 0

    def __getstate__(self) -> tuple:
        # see PriorityContext.__getstate__: RCs ride acknowledgement
        # entries over the process backend's pipes
        return (self.c_m, self.c_path, self.queueing_delay, self.mailbox_size)

    def __setstate__(self, state: tuple) -> None:
        (self.c_m, self.c_path, self.queueing_delay, self.mailbox_size) = state

    @property
    def downstream_cost(self) -> float:
        """Total cost from (and including) the replying operator to a sink."""
        return self.c_m + self.c_path


@dataclass(slots=True)
class ReplyState:
    """Per-downstream-stage RC aggregate held by a context converter.

    The converter keeps the most recent RC per downstream stage; the
    effective ``C_path`` of the holder is the max over downstream stages of
    ``c_m + c_path`` (critical path = max over paths, Eq. 2).

    :meth:`max_downstream_cost` is queried once per processed message
    (PREPAREREPLY), so the max is cached and only recomputed when the
    previous maximum's stage is downgraded.
    """

    by_stage: dict[str, ReplyContext] = field(default_factory=dict)
    _max_cost: Optional[float] = None
    _max_stage: Optional[str] = None

    def update(self, stage_name: str, rc: ReplyContext) -> None:
        self.by_stage[stage_name] = rc
        cost = rc.c_m + rc.c_path
        cached = self._max_cost
        if cached is None or cost >= cached:
            self._max_cost = cost
            self._max_stage = stage_name
        elif stage_name == self._max_stage:
            self._max_cost = None  # previous max downgraded: recompute lazily

    def get(self, stage_name: str) -> Optional[ReplyContext]:
        return self.by_stage.get(stage_name)

    def max_downstream_cost(self) -> float:
        """Max over downstream stages of ``c_m + c_path`` (0 at a sink)."""
        if not self.by_stage:
            return 0.0
        if self._max_cost is None:
            best_stage, best_cost = None, float("-inf")
            for stage, rc in self.by_stage.items():
                cost = rc.c_m + rc.c_path
                if cost > best_cost:
                    best_stage, best_cost = stage, cost
            self._max_cost, self._max_stage = best_cost, best_stage
        return self._max_cost
