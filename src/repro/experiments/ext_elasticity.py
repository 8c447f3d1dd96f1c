"""Extension experiment — proactive prioritization vs reactive elasticity.

The paper's motivation (§1-2): production users fight workload variability
with *reactive* dataflow reconfiguration — scaling resources when latency
deteriorates — while Cameo argues the engine can instead *proactively*
delay lax work, meeting targets with the resources already present.

This ablation makes that argument quantitative on a burst-train workload
(4 latency-sensitive jobs + 2 backlogged bulk jobs on a 2-worker node):

* ``fifo static``     — arrival order, fixed pool (the strawman);
* ``fifo reactive``   — arrival order plus a latency-triggered autoscaler
  that grows the pool up to 2x and shrinks it when calm;
* ``cameo static``    — deadline-aware scheduling, fixed pool.

Metrics: LS tail latency, deadline success, and provisioned worker-seconds
(the cost of the reactive head-room).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, TenantMix, build_tenant_mix
from repro.metrics.stats import percentile
from repro.runtime.engine import StreamEngine
from repro.workloads.arrivals import RateTimelineArrivals

MIX = TenantMix(ls_count=4, ba_count=2, ls_latency=0.4, ba_msg_rate=60.0,
                tuples_per_msg=200)


class ReactiveScaler:
    """Latency-triggered autoscaler (the reactive baseline).

    Every ``interval`` seconds it computes the LS group's p95 over the last
    interval; above ``high_watermark`` it grows the node's pool by one
    worker (up to ``max_extra`` beyond the base pool), below
    ``low_watermark`` it shrinks by one.  Scaling goes through the public
    :class:`~repro.runtime.lifecycle.OperatorLifecycle` API
    (``engine.lifecycle.rescale``), the same entry point an operator
    console would use.
    """

    def __init__(
        self,
        engine: StreamEngine,
        node_id: int = 0,
        interval: float = 1.0,
        high_watermark: float = 0.2,
        low_watermark: float = 0.05,
        max_extra: int = 2,
        until: float = float("inf"),
    ):
        self.engine = engine
        self.node_id = node_id
        self.interval = interval
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.max_extra = max_extra
        self.until = until
        self.base_workers = self.engine.nodes[node_id].active_worker_count
        self.scale_ups = 0
        self.scale_downs = 0
        self._seen_outputs: dict[str, int] = {}

    def install(self) -> "ReactiveScaler":
        self.engine.sim.schedule(self.interval, self._tick)
        return self

    def _recent_p95(self) -> float:
        latencies: list[float] = []
        for name in self.engine.metrics.job_names:
            job = self.engine.metrics.job(name)
            if job.group != "LS":
                continue
            start = self._seen_outputs.get(name, 0)
            latencies.extend(job.latencies[start:])
            self._seen_outputs[name] = len(job.latencies)
        if not latencies:
            return 0.0
        return percentile(latencies, 95)

    def _tick(self) -> None:
        now = self.engine.sim.now
        if now > self.until:
            return
        active = self.engine.nodes[self.node_id].active_worker_count
        p95 = self._recent_p95()
        if p95 > self.high_watermark:
            if active < self.base_workers + self.max_extra:
                self.engine.lifecycle.rescale(self.node_id, active + 1)
                self.scale_ups += 1
        elif p95 < self.low_watermark:
            if active > self.base_workers:
                self.engine.lifecycle.rescale(self.node_id, active - 1)
                self.scale_downs += 1
        self.engine.sim.schedule(self.interval, self._tick)


def run_ext_elasticity(
    duration: float = 30.0,
    seed: int = 23,
) -> ExperimentResult:
    result = ExperimentResult(
        name="ext_elasticity",
        title="Proactive prioritization (Cameo) vs reactive worker scaling",
        headers=["variant", "LS p50 (ms)", "LS p99 (ms)", "LS success",
                 "worker-seconds", "scale events"],
        notes="expect: reactive scaling recovers fifo's latency at extra "
              "worker-seconds; cameo matches or beats it on the base pool",
    )
    horizon = duration + 5.0
    variants = {
        "fifo static": ("fifo", False),
        "fifo reactive": ("fifo", True),
        "cameo static": ("cameo", False),
    }
    for label, (scheduler, reactive) in variants.items():
        engine = build_tenant_mix(
            scheduler, MIX, duration=duration, nodes=1, seed=seed,
            # burst train: 3 s of heavy ingestion, 2 s of calm
            ls_arrivals=lambda s, i: RateTimelineArrivals([95.0, 95.0, 95.0, 0.0, 0.0]),
        )
        scaler = None
        if reactive:
            scaler = ReactiveScaler(engine, until=duration).install()
        engine.run(until=horizon)
        summary = engine.metrics.group_summary("LS")
        success = engine.metrics.group_success_rate("LS")
        worker_seconds = engine.worker_seconds(horizon)
        events = (scaler.scale_ups + scaler.scale_downs) if scaler else 0
        result.rows.append([label, summary.p50 * 1e3, summary.p99 * 1e3,
                            success, worker_seconds, events])
        result.extras[label] = {
            "p50": summary.p50, "p99": summary.p99, "success": success,
            "worker_seconds": worker_seconds, "events": events,
        }
    return result
