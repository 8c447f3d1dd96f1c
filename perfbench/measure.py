"""One rep of a workload, measured from outside, and the end-to-end metrics
computed from a set of reps.

A rep generates its inputs from ``(seed, rep index)``, builds the engine,
schedules the ingests, runs, and checks every sink output against the
oracle.  Definitions (see README):

* a *message* is one operator execution (``metrics.total_messages``);
* run wall is ``engine.run`` on sim and ``info["wall_time"]`` (shared epoch
  to quiescence) on mp; set-up is everything else the rep spent — input
  generation, engine construction and, on mp, capture, fork, clock sync,
  report collection;
* CPU is user+sys of this process and its reaped worker children across
  ``engine.run``;
* the latency of a sink output is its emission time minus the due arrival
  of the last ingest message that contributed to its window (closed replay:
  minus the replay start, when all input is due at once).
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from perfbench import inputs, oracle
from perfbench.workloads import Workload


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest worker child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # Linux reports KiB


@dataclass
class Rep:
    """Raw measurements and oracle verdict of one rep."""

    seed: int
    setup_s: float
    run_wall_s: float
    cpu_s: float
    messages: int
    trace_digest: str
    output_digest: str
    expected: int = 0
    failed: int = 0
    #: per group: [(emission time, latency seconds)] of matched outputs
    latencies: dict = field(default_factory=dict)
    #: per group: emission times of matched outputs over their job's constraint
    late: dict = field(default_factory=dict)
    expected_by_group: Counter = field(default_factory=Counter)
    tuples_by_group: Counter = field(default_factory=Counter)
    horizon: float = 0.0
    #: engine-side facts the per-layer metrics read (fault report, mp info)
    facts: dict = field(default_factory=dict)

    @property
    def wall_us_per_msg(self) -> float:
        return self.run_wall_s / self.messages * 1e6

    @property
    def cpu_us_per_msg(self) -> float:
        return self.cpu_s / self.messages * 1e6

    def raw(self) -> dict:
        """The rep's raw timings, for the manifest."""
        return {
            "seed": self.seed, "setup_s": self.setup_s,
            "run_wall_s": self.run_wall_s, "cpu_s": self.cpu_s,
            "messages": self.messages, "expected": self.expected,
            "failed": self.failed, "trace_digest": self.trace_digest,
            "output_digest": self.output_digest,
        }


def rep_seed(seed: int, rep: int) -> int:
    """Reps of one run use distinct inputs, so their outputs pool."""
    return seed * 1000 + rep


def run_rep(workload: Workload, seed: int, seconds: float, tracer=None,
            setup_only: bool = False, **config_overrides) -> Rep:
    """Run one rep; with ``tracer`` the layer wrappers record it (they must
    already be installed: hot paths cache bound methods at wiring time).

    ``setup_only`` sets the same run up and stops it at once — nothing runs
    on sim, the forked workers are stopped on mp — for one more set-up
    sample; such a rep has no outputs to check."""
    from repro.runtime.engine import make_engine

    gc.collect()
    horizon = workload.horizon(seconds)
    until = horizon + workload.drain
    if setup_only and workload.backend == "sim":
        until = 0.0
    elif setup_only:
        config_overrides["mp_wall_timeout"] = 0.05
    if tracer is not None:
        tracer.start()
    try:
        started = time.perf_counter()
        jobs = workload.make_jobs()
        traces = inputs.build_traces(workload.source_specs(jobs), seed, horizon)
        config = workload.engine_config(seed, seconds, **config_overrides)
        engine = make_engine(config, jobs)
        inputs.install(engine, traces)
        built = time.perf_counter()
        cpu_before = _cpu_seconds()
        own_before = time.process_time()
        engine.run(until=until)
        finished = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.stop()
    cpu_s = _cpu_seconds() - cpu_before
    own_cpu_s = time.process_time() - own_before

    metrics = engine.metrics
    on_sim = config.backend == "sim"
    if on_sim:
        run_wall = finished - built
        facts = {"fault_report": metrics.fault_report(),
                 "fired_events": engine.sim.fired_count}
    else:
        run_wall = engine.info["wall_time"]
        facts = {"info": engine.info, "retransmissions": metrics.retransmissions,
                 "coordinator_cpu_s": own_cpu_s, "lateness": []}
    rep = Rep(
        seed=seed, setup_s=(finished - started) - run_wall, run_wall_s=run_wall,
        cpu_s=cpu_s, messages=metrics.total_messages,
        trace_digest=inputs.trace_digest(traces), output_digest="",
        horizon=horizon, facts=facts,
    )
    if setup_only:
        return rep
    closed = not on_sim and not config.mp_realtime
    outputs = hashlib.sha256()
    for job in jobs:
        job_metrics = metrics.job(job.name)
        verdict = oracle.check(oracle.reference(job, traces), job_metrics,
                               exact_anchor=on_sim)
        rep.expected += verdict.expected
        rep.failed += verdict.failed
        # closed replay: all input is due when the replay starts
        pairs = [(emitted, emitted if closed else emitted - due)
                 for emitted, due, _ in verdict.matched]
        if not on_sim and not closed:
            # how late the paced generator released the closing message
            facts["lateness"].extend(
                (emitted - due) - recorded for emitted, due, recorded in verdict.matched)
        rep.latencies.setdefault(job.group, []).extend(pairs)
        rep.late.setdefault(job.group, []).extend(
            emitted for emitted, latency in pairs if latency > job.latency_constraint)
        rep.expected_by_group[job.group] += verdict.expected
        rep.tuples_by_group[job.group] += job_metrics.tuples_processed
        outputs.update(np.asarray(job_metrics.output_values).tobytes())
        outputs.update(np.asarray(job_metrics.output_tuples).tobytes())
        if on_sim:
            outputs.update(np.asarray(job_metrics.output_times).tobytes())
    if not on_sim and (engine.info["forced_stop"] or engine.info["fifo_violations"]):
        # a run that had to be stopped, or broke channel order, fails whole
        rep.failed = rep.expected
    rep.output_digest = outputs.hexdigest()[:16]
    return rep


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def group_latencies(reps: list[Rep], group: str) -> np.ndarray:
    return np.asarray(
        [latency for rep in reps for _, latency in rep.latencies.get(group, [])]
    )


def end_to_end(reps: list[Rep], setup_samples: list[float]) -> dict:
    """The end-to-end metrics of one run (``name -> value``).

    Wall and CPU time per message are the best rep: the host only ever
    adds time, so the least disturbed rep is the steadiest estimate.
    Set-up is a median; latency pools every rep's latency-sensitive
    outputs."""
    ls = group_latencies(reps, "LS")
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_us_per_msg": min(rep.wall_us_per_msg for rep in reps),
        "cpu_us_per_msg": min(rep.cpu_us_per_msg for rep in reps),
        "ls_p50_ms": float(np.percentile(ls, 50)) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
