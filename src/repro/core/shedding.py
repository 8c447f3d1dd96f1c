"""Deadline-aware load shedding (graceful degradation under overload).

Cameo's priority contexts carry each message's *start deadline*
``ddl_M = t_MF + L − C_oM − C_path`` (§4.2, Eq. 3): the latest instant the
message may begin executing and still let the job meet its end-to-end
latency target ``L``.  Under overload or after a fault-recovery backlog,
some queued messages are already past that instant — executing them burns
worker time on outputs that will miss their constraint anyway, *and*
delays messages that could still make it.

The shedder formalises the drop decision: a message is shed exactly when
its deadline is already unmeetable at pop time.  This is degradation only
Cameo can express — FIFO and Orleans carry no deadline information on
messages, so they must process doomed backlog in arrival order while
fresh work queues behind it.  Bulk-analytics jobs with lax constraints
(``L`` of hours, so ``ddl_M`` far in the future — or jobs with no
constraint, ``ddl_M = +inf``) are never shed: shedding targets precisely
the latency-sensitive messages whose value has expired.

``slack`` trades completeness for latency: a positive slack keeps
messages that are late by at most that much (their outputs count as
misses but may still be useful), shedding only beyond it.
"""

from __future__ import annotations

from repro.core.context import PriorityContext


#: lateness (seconds) tolerated before a message is shed
SHED_SLACK = 0.0


class DeadlineShedder:
    """Drop-decision off a message's :class:`PriorityContext`.

    Stateless apart from the configured slack; counting lives in the job
    metrics so per-job shed volumes stay attributable.
    """

    __slots__ = ("slack",)

    def __init__(self, slack: float = SHED_SLACK):
        if slack < 0:
            raise ValueError("shedding slack must be non-negative")
        self.slack = slack

    def should_shed(self, pc: PriorityContext, now: float) -> bool:
        """True when the message's start deadline is already unmeetable.

        NaN deadlines (unknown) and +inf deadlines (no constraint) never
        shed; the comparison is written to be NaN-safe without a math
        call (the scheduler's hot-path idiom)."""
        deadline = pc.deadline
        if deadline != deadline:  # NaN: no deadline information
            return False
        return now > deadline + self.slack
