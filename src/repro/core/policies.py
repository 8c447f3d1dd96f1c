"""Pluggable scheduling policies (§4, §6.3).

A policy turns the information gathered by the context converter into the
``(PRI_local, PRI_global)`` pair the two-level scheduler orders by.  Lower
values mean higher priority.

* **LLF** (default): global priority is the start deadline *including* the
  target's own cost — least laxity first (Eq. 3).
* **EDF**: omits the target's execution cost ``C_oM`` (§4.2.2).
* **SJF**: global priority is the target's execution cost alone — not
  deadline-aware, included for comparison (Fig. 11).

The token-based proportional-fair policy lives in :mod:`repro.core.tokens`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.context import PriorityContext
from repro.core.deadline import start_deadline

if TYPE_CHECKING:
    from repro.core.converter import ContextConverter


class SchedulingPolicy:
    """Base policy.  Subclasses implement :meth:`assign`."""

    name = "abstract"

    def start_deadline(
        self, t_mf: float, latency_constraint: float, c_m: float, c_path: float
    ) -> float:
        """The policy's form of the start deadline: Eq. 3 here.  The mp
        ingest gate orders admissions by it
        (:meth:`ContextConverter.admission_priority`)."""
        return start_deadline(t_mf, latency_constraint, c_m, c_path)

    def assign(
        self,
        converter: ContextConverter,
        now: float,
        p_mf: float,
        t_mf: float,
        c_m: float,
        c_path: float,
        deadline: float,
        inherited: Optional[PriorityContext],
        at_source: bool,
    ) -> tuple[float, float]:
        """Return ``(pri_local, pri_global)`` for a message sent at ``now``.

        ``p_mf``/``t_mf`` are its frontier progress and time, ``c_m`` and
        ``c_path`` the target's profiled costs, ``deadline`` their Eq. 3
        start deadline, ``inherited`` the PC of the message that triggered
        the send (None at the ingestion point, where ``at_source`` is
        True).  ``converter`` names the job (``job_name``,
        ``latency_constraint``) and the source (``source_index``)."""
        raise NotImplementedError


class LeastLaxityFirstPolicy(SchedulingPolicy):
    """LLF: prioritize the message whose start deadline is earliest,
    accounting for the target operator's own execution cost."""

    name = "llf"

    def assign(self, converter, now, p_mf, t_mf, c_m, c_path, deadline,
               inherited, at_source):
        return (p_mf, deadline)


class EarliestDeadlineFirstPolicy(SchedulingPolicy):
    """EDF: the paper's variant considers the deadline *prior to* the
    operator executing, i.e. drops the ``C_oM`` term from Eq. 3."""

    name = "edf"

    def start_deadline(self, t_mf, latency_constraint, c_m, c_path):
        return start_deadline(t_mf, latency_constraint, 0.0, c_path)

    def assign(self, converter, now, p_mf, t_mf, c_m, c_path, deadline,
               inherited, at_source):
        return (p_mf, self.start_deadline(
            t_mf, converter.latency_constraint, c_m, c_path))


class ShortestJobFirstPolicy(SchedulingPolicy):
    """SJF: ``ddl_M = C_oM`` (§4.2.2) — deadline-unaware baseline policy."""

    name = "sjf"

    def assign(self, converter, now, p_mf, t_mf, c_m, c_path, deadline,
               inherited, at_source):
        return (p_mf, c_m)


class ConstantPolicy(SchedulingPolicy):
    """Assigns a fixed priority to every message.

    Used by the overhead experiment (Fig. 12) to isolate the cost of
    priority *scheduling* from the cost of priority *generation*: the
    two-level queue machinery runs, but no deadline arithmetic does.
    """

    name = "constant"

    def __init__(self, pri_local: float = 0.0, pri_global: float = 0.0):
        self._pair = (pri_local, pri_global)

    def assign(self, converter, now, p_mf, t_mf, c_m, c_path, deadline,
               inherited, at_source):
        return self._pair


_POLICY_FACTORIES = {
    "llf": LeastLaxityFirstPolicy,
    "edf": EarliestDeadlineFirstPolicy,
    "sjf": ShortestJobFirstPolicy,
    "constant": ConstantPolicy,
}


def make_policy(name: str, **kwargs) -> SchedulingPolicy:
    """Policy factory.  ``token`` is constructed via :mod:`repro.core.tokens`."""
    if name == "token":
        from repro.core.tokens import TokenFairPolicy

        return TokenFairPolicy(**kwargs)
    factory = _POLICY_FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown policy {name!r}; expected one of "
            f"{sorted([*_POLICY_FACTORIES, 'token'])}"
        )
    return factory(**kwargs)
