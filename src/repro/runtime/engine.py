"""StreamEngine: the façade over the layered node runtime.

The engine used to be a monolith; it is now a thin composition root over
four collaborating layers (see ``docs/architecture.md``):

* :class:`~repro.runtime.topology.TopologyBuilder` — builds operators,
  places them, wires channels and converters, emits a
  :class:`~repro.runtime.topology.WiringPlan` (§5.2 / Fig. 5a),
* :class:`~repro.runtime.node.NodeRuntime` — one per node: worker pool,
  run queue, and the quantum-based dispatch loop (§5.2 / Fig. 5b),
* :class:`~repro.runtime.transport.Transport` — message delivery with
  per-channel FIFO order (§4.3), emission routing, RC acknowledgements,
* :class:`~repro.runtime.lifecycle.OperatorLifecycle` — dynamic
  reconfiguration: ``spawn`` / ``retire`` / ``rescale`` worker pools and
  live ``migrate`` of operators between nodes.

The constructor and :meth:`run` signatures are unchanged from the
monolithic engine, so experiments, benchmarks and the CLI are oblivious
to the split.  ``policy`` overrides the policy named in the config with a
custom :class:`~repro.core.policies.SchedulingPolicy` instance — the hook
for user-defined priority generation (§5.4).
"""

from __future__ import annotations

from typing import Optional

from repro.core.policies import make_policy
from repro.core.profiler import CostProfiler, GaussianNoiseInjector
from repro.core.shedding import DeadlineShedder
from repro.dataflow.jobs import JobSpec
from repro.dataflow.operators import OpAddress
from repro.metrics.collectors import MetricsHub
from repro.obs.introspect import SchedulerSampler
from repro.obs.recorder import TraceRecorder
from repro.runtime.config import EngineConfig
from repro.runtime.delivery import RETRANSMIT_BACKOFF_CAP, RETRANSMIT_TIMEOUT
from repro.runtime.lifecycle import OperatorLifecycle
from repro.runtime.node import NodeRuntime, make_run_queue
from repro.runtime.recovery import (
    CheckpointManager,
    RecoveryManager,
    ReliableDelivery,
)
from repro.runtime.topology import OperatorRuntime, TopologyBuilder, WiringPlan
from repro.runtime.transport import Transport
from repro.runtime.workers import Worker
from repro.sim.faults import FaultInjector, FaultTimeline
from repro.sim.kernel import Simulator
from repro.sim.network import BandwidthModel, ChannelTable, ConstantDelay
from repro.sim.rng import RngRegistry


def make_engine(config: EngineConfig, jobs: list[JobSpec], policy=None):
    """Backend selector: the one place ``config.backend`` is dispatched on.

    ``"sim"`` (the default) returns the discrete-event :class:`StreamEngine`
    unchanged — sim runs stay bit-identical whether built directly or
    through this factory.  ``"mp"`` returns the process-backed
    :class:`~repro.runtime.mp.engine.MpStreamEngine` (imported lazily so
    the sim path never touches multiprocessing)."""
    if config.backend == "mp":
        from repro.runtime.mp.engine import MpStreamEngine

        return MpStreamEngine(config, jobs, policy=policy)
    return StreamEngine(config, jobs, policy=policy)


class StreamEngine:
    """Runs a set of jobs on a simulated cluster under one scheduler."""

    def __init__(self, config: EngineConfig, jobs: list[JobSpec], policy=None):
        names = [j.name for j in jobs]
        if len(set(names)) != len(names):
            raise ValueError("job names must be unique")
        self.config = config
        self.jobs = {j.name: j for j in jobs}
        self.sim = Simulator()
        self.rng = RngRegistry(config.seed)
        self.metrics = MetricsHub()
        self.channels = ChannelTable()
        noise = None
        if config.profile_noise_sigma > 0:
            noise = GaussianNoiseInjector(
                config.profile_noise_sigma, self.rng.stream("profile-noise")
            )
        self.profiler = CostProfiler(noise=noise)
        self.policy = policy or make_policy(config.policy, **config.policy_kwargs)
        self._delay_model = ConstantDelay()

        clock = lambda: self.sim.now  # noqa: E731
        self.nodes: list[NodeRuntime] = [
            NodeRuntime(node_id=i, run_queue=make_run_queue(config, clock))
            for i in range(config.nodes)
        ]
        for node in self.nodes:
            node.workers = [
                Worker(node_id=node.node_id, local_id=w)
                for w in range(config.workers_per_node)
            ]

        builder = TopologyBuilder(
            config, self.jobs, self.policy, self.profiler,
            self.channels, self._delay_model,
        )
        self.plan: WiringPlan = builder.build(self.nodes)
        self._ops = self.plan.ops
        self.transport = Transport(
            self.sim, self.nodes, self.plan, self.channels,
            self._delay_model, self.metrics, self.profiler,
            config, builder,
        )
        # observability plane: installed only when asked for.  The recorder
        # is passive (never schedules, never touches an RNG) and the sampler
        # only performs order-preserving run-queue maintenance, so traced
        # runs stay bit-identical to untraced ones; with tracing off the
        # runtime holds no recorder at all and the hot path is unchanged.
        self.tracer: Optional[TraceRecorder] = None
        self._sampler: Optional[SchedulerSampler] = None
        if config.record_trace:
            self.tracer = TraceRecorder()
            self.transport.attach_tracer(self.tracer)
        # fault machinery: installed only for a non-empty schedule, so
        # fault-free runs stay bit-identical to runs without any schedule
        # (faults draw from their own named RNG substream, so even the
        # streams other components see are unchanged)
        schedule = config.fault_schedule
        self.fault_timeline: Optional[FaultTimeline] = None
        self.reliable: Optional[ReliableDelivery] = None
        self.recovery: Optional[RecoveryManager] = None
        self.fault_injector: Optional[FaultInjector] = None
        if schedule is not None and schedule.enabled:
            self.fault_timeline = FaultTimeline()
            self.fault_injector = FaultInjector(
                schedule, self.rng.stream("faults"), clock
            )
            nodes = self.nodes
            self.reliable = ReliableDelivery(
                self.sim, self.metrics, self.fault_injector, self._delay_model,
                node_down=lambda node_id: nodes[node_id].down,
                rto=RETRANSMIT_TIMEOUT, rto_cap=RETRANSMIT_BACKOFF_CAP,
            )
            self.reliable.attach(self.transport.deliver)
            self.transport.attach_reliable(self.reliable)
            if self.tracer is not None:
                self.reliable.attach_tracer(self.tracer)
        # shared-link bandwidth: installed only when a capacity is set, so
        # capacity-free runs keep a propagation-only transit path
        self.bandwidth: Optional[BandwidthModel] = None
        if config.link_capacity is not None:
            self.bandwidth = BandwidthModel(
                config.link_capacity, config.link_policy, metrics=self.metrics
            )
            self.transport.attach_bandwidth(self.bandwidth)
            if self.reliable is not None:
                self.reliable.attach_bandwidth(self.bandwidth)
        shedder = DeadlineShedder() if config.shed_expired else None

        cost_rng = self.rng.stream("exec-cost")
        for node in self.nodes:
            node.bind(self.sim, self.metrics, self.profiler, cost_rng,
                      config, self.transport, reliable=self.reliable,
                      shedder=shedder, tracer=self.tracer)
        self.lifecycle = OperatorLifecycle(
            self.sim, self.nodes, self._ops, self.transport
        )
        for node in self.nodes:
            node.attach_lifecycle(self.lifecycle)
        # state recovery: installed only on top of the fault machinery and
        # only when asked for — ``state_recovery == "none"`` keeps the
        # legacy crash semantics (state rides the migration path) and the
        # checkpoint RNG substream untouched, so runs stay bit-identical
        self.checkpoints: Optional[CheckpointManager] = None
        if self.reliable is not None:
            self.recovery = RecoveryManager(
                self.sim, self.nodes, self._ops, self.lifecycle,
                self.reliable, self.metrics, self.fault_timeline,
                self.fault_injector, tracer=self.tracer,
                # the quorum gate exists only when the schedule can cut
                # the fabric; without a cut every view trivially has quorum
                quorum=(schedule.has_partitions
                        and config.partition_failover == "quorum"),
            )
            if config.state_recovery != "none":
                self.checkpoints = CheckpointManager(
                    self.sim, self._ops, self.reliable, self.metrics,
                    self.fault_timeline, self.rng.stream("checkpoints"),
                    config.checkpoint_interval, config.state_recovery,
                )
                self.recovery.attach_checkpoints(self.checkpoints)
                self.checkpoints.start(self.nodes)
            self.recovery.install(schedule)
        if self.tracer is not None:
            self._sampler = SchedulerSampler(
                self.sim, self.nodes, list(self._ops.values()), self.tracer,
                config.trace_sample_interval,
            )
            self._sampler.start()

        for job in jobs:
            self.metrics.register_job(job.name, job.group, job.latency_constraint)
        for op_rt in self._ops.values():
            op_rt.job_metrics = self.metrics.job(op_rt.job.name)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def operator_runtime(self, address: OpAddress) -> OperatorRuntime:
        return self._ops[address]

    @property
    def operator_runtimes(self) -> list[OperatorRuntime]:
        return list(self._ops.values())

    def backoff_by_channel(self) -> dict[str, dict]:
        """Per-channel retransmit accounting (see
        :meth:`~repro.runtime.delivery.ReliableDriver.backoff_by_channel`);
        empty without reliable delivery."""
        if self.reliable is None:
            return {}
        return self.reliable.backoff_by_channel()

    def describe_topology(self) -> dict:
        """JSON-able dump of the live wiring: operators, placements,
        channels and reply routes (the ``repro topology`` subcommand)."""
        return self.plan.describe()

    def ingest(
        self,
        job_name: str,
        stage_name: str,
        source_index: int,
        logical_times,
        values=None,
        keys=None,
        sorted_times: bool = False,
    ) -> None:
        """Deliver a batch of external events to a source operator.

        See :meth:`repro.runtime.transport.Transport.ingest`."""
        self.transport.ingest(
            job_name, stage_name, source_index, logical_times,
            values=values, keys=keys, sorted_times=sorted_times,
        )

    def run(self, until: float) -> None:
        """Run the simulation until the given time, then finalize metrics."""
        self.sim.run(until=until)
        for node in self.nodes:
            for worker in node.workers:
                self.metrics.record_worker_busy(
                    node.node_id, worker.local_id, worker.busy_time
                )
        for job, late in self.plan.late_tuples().items():
            self.metrics.job(job).late_tuples = late

    # ------------------------------------------------------------------
    # elastic worker pools (compat shims over the lifecycle API)
    # ------------------------------------------------------------------

    def add_worker(self, node_id: int) -> Worker:
        """Grow a node's worker pool (see :meth:`OperatorLifecycle.spawn`)."""
        return self.lifecycle.spawn(node_id)

    def retire_worker(self, node_id: int) -> Optional[Worker]:
        """Shrink a node's pool (see :meth:`OperatorLifecycle.retire`)."""
        return self.lifecycle.retire(node_id)

    def worker_seconds(self, horizon: float) -> float:
        """Total worker-seconds provisioned in [0, horizon] (cost proxy)."""
        return sum(
            w.lifetime(horizon) for node in self.nodes for w in node.workers
        )
