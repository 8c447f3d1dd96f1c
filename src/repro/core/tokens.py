"""Proportional fair sharing via tokens (§5.4, Fig. 6).

Each rate-controlled job is granted tokens per interval at each source,
proportional to its target sending rate.  Tokens are spread across the
interval by tagging each with a timestamp; the tag becomes ``PRI_global``
and the interval id becomes ``PRI_local``.  A source that exceeds its rate
sends the excess — and, through PC propagation, all its downstream
traffic — at minimum priority, so tokened traffic from other jobs is always
served first.  When the cluster cannot sustain the aggregate token rate,
every dataflow degrades equally because token tags interleave fairly in
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.context import MIN_PRIORITY
from repro.core.policies import SchedulingPolicy


@dataclass
class _Bucket:
    interval: int = -1
    used: int = 0


class TokenFairPolicy(SchedulingPolicy):
    """Token-based rate control as a Cameo pluggable policy.

    Args:
        rates: per-job token rate in messages/second *per source operator*
            (the paper grants tokens at each source).
        interval: token accounting interval in seconds (paper uses 1 s).
    """

    name = "token"

    def __init__(self, rates: dict[str, float], interval: float = 1.0):
        if interval <= 0:
            raise ValueError("token interval must be positive")
        for job, rate in rates.items():
            if rate <= 0:
                raise ValueError(f"job {job!r}: token rate must be positive")
        self._rates = dict(rates)
        self._interval = interval
        self._buckets: dict[tuple[str, int], _Bucket] = {}

    @property
    def interval(self) -> float:
        return self._interval

    def rate_for(self, job_name: str) -> float | None:
        return self._rates.get(job_name)

    def assign(self, converter, now, p_mf, t_mf, c_m, c_path, deadline,
               inherited, at_source):
        if not at_source:
            # Downstream messages inherit the source's token tag: "through PC
            # propagation, all downstream messages are processed when no
            # tokened traffic is present".
            if inherited is not None:
                return (inherited.pri_local, inherited.pri_global)
            return (0.0, MIN_PRIORITY)
        job_name = converter.job_name
        rate = self._rates.get(job_name)
        if rate is None:
            # job not under rate control: schedule by arrival time
            return (0.0, now)
        interval_id = int(math.floor(now / self._interval))
        bucket = self._buckets.setdefault(
            (job_name, converter.source_index), _Bucket()
        )
        if bucket.interval != interval_id:
            bucket.interval = interval_id
            bucket.used = 0
        tokens_per_interval = rate * self._interval
        if bucket.used >= tokens_per_interval:
            # untokened messages sort behind ALL tokened messages within an
            # operator's mailbox (local priority = MIN too; FIFO tie-break
            # keeps them in arrival order).  If they sorted by interval they
            # would bury later intervals' tokened messages behind an
            # untokened backlog, starving the job's own tokened traffic.
            return (MIN_PRIORITY, MIN_PRIORITY)
        # spread tokens across the *next* interval proportionally
        tag = (interval_id * self._interval) + bucket.used / rate
        bucket.used += 1
        return (float(interval_id), tag)
