#!/usr/bin/env python
"""Visualize the operator schedule — the paper's Fig. 7(c), in the terminal.

Runs IPQ1 under Orleans and under Cameo with the execution timeline
recorded (``record_timeline``), then draws which operator started
messages when.  Under Cameo the marks form
clean bands separated at window boundaries — early-arriving messages from
the *next* window are postponed until the current window's output is done.
Under Orleans the stages smear across boundaries and outputs drift late.

Run:  python examples/schedule_timeline.py
"""

from repro import EngineConfig, StreamEngine
from repro.metrics.plots import ascii_cdf, ascii_schedule
from repro.queries import ipq1
from repro.workloads import FixedBatchSize, PoissonArrivals, drive_all_sources

DURATION = 20.0
MSG_RATE = 90.0


def run(scheduler: str):
    job = ipq1()
    config = EngineConfig(scheduler=scheduler, nodes=1, workers_per_node=4,
                          seed=2, record_timeline=True)
    engine = StreamEngine(config, [job])
    drive_all_sources(engine, job, lambda s, i: PoissonArrivals(MSG_RATE),
                      sizer=FixedBatchSize(1000), until=DURATION)
    engine.run(until=DURATION + 5.0)
    return engine, job


def main() -> None:
    for scheduler in ("orleans", "cameo"):
        engine, job = run(scheduler)
        print(f"\n=== {scheduler} ===")
        print(ascii_schedule(
            engine.metrics.timeline,
            start=10.0, end=13.0, width=78,
            stage_order=job.graph.stage_names,
            window=1.0,
        ))
        metrics = engine.metrics.job(job.name)
        print()
        print(ascii_cdf(metrics.latencies, title=f"{scheduler}: IPQ1 latency CDF"))


if __name__ == "__main__":
    main()
