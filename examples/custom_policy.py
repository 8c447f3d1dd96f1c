#!/usr/bin/env python
"""Write your own scheduling policy — Cameo's pluggability in ~20 lines.

Cameo separates priority *generation* from priority *scheduling* (§5): a
policy is just a function from the context converter's view of a message
(frontier progress and time, profiled costs, the Eq. 3 start deadline, job
identity) to a ``(PRI_local, PRI_global)`` pair.  This example implements a
**strict-class** policy: jobs declare a class, higher classes always win,
and within a class messages fall back to least-laxity order.  It then
shows the policy protecting a "gold" tenant from an identical "bronze"
tenant under overload, with no changes to the scheduler itself.

Run:  python examples/custom_policy.py
"""

from repro import EngineConfig, StreamEngine
from repro.core.policies import SchedulingPolicy
from repro.metrics import format_table
from repro.workloads import (
    FixedBatchSize,
    PeriodicArrivals,
    drive_all_sources,
    make_latency_sensitive_job,
)


class StrictClassPolicy(SchedulingPolicy):
    """Priority classes with LLF tie-breaking inside each class.

    ``classes`` maps job name -> class number (higher = more important).
    The global priority is offset by a large per-class constant, so a
    higher class always outranks a lower one regardless of deadlines.
    """

    name = "strict-class"
    CLASS_OFFSET = 1e6  # >> any deadline value that occurs in a run

    def __init__(self, classes: dict[str, int]):
        self._classes = dict(classes)

    def assign(self, converter, now, p_mf, t_mf, c_m, c_path, deadline,
               inherited, at_source):
        job_class = self._classes.get(converter.job_name, 0)
        return (p_mf, deadline - job_class * self.CLASS_OFFSET)


def run(policy_kwargs):
    gold = make_latency_sensitive_job("gold", source_count=4)
    bronze = make_latency_sensitive_job("bronze", source_count=4)
    config = EngineConfig(scheduler="cameo", nodes=1, workers_per_node=1, seed=31)
    engine = StreamEngine(config, [gold, bronze],
                          policy=StrictClassPolicy(**policy_kwargs))
    # both tenants flood the single worker equally (overload together)
    for job in (gold, bronze):
        drive_all_sources(engine, job, lambda s, i: PeriodicArrivals(1 / 55.0),
                          sizer=FixedBatchSize(1000), until=25.0)
    engine.run(until=30.0)
    return engine


def main() -> None:
    rows = []
    for label, classes in (
        ("equal classes", {"gold": 1, "bronze": 1}),
        ("gold > bronze", {"gold": 2, "bronze": 1}),
    ):
        engine = run({"classes": classes})
        for job in ("gold", "bronze"):
            summary = engine.metrics.job(job).summary()
            rows.append([label, job, summary.p50 * 1e3, summary.p99 * 1e3,
                         engine.metrics.job(job).success_rate()])
    print(format_table(
        ["configuration", "job", "p50 (ms)", "p99 (ms)", "success"],
        rows,
        title="StrictClassPolicy: identical tenants, different classes",
    ))
    print("\nWith equal classes both tenants share the pain; raising gold's")
    print("class protects it completely — the scheduler itself is untouched.")


if __name__ == "__main__":
    main()
