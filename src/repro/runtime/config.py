"""Engine configuration.

One dataclass gathers every knob the evaluation sweeps: scheduler choice,
policy, quantum (§5.2), cluster shape, profiling noise (Fig. 16), and
semantics awareness (Fig. 15).  Values no run ever varies are module
constants beside the mechanism that owns them; the failure-detection cadence
both backends share lives here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only (keep sim/ import lazy)
    from repro.sim.faults import FaultSchedule

SCHEDULERS = ("cameo", "orleans", "fifo")
POLICIES = ("llf", "edf", "sjf", "constant", "token")
STATE_RECOVERY_MODES = ("none", "replay", "checkpoint")
PARTITION_FAILOVER_MODES = ("quorum", "naive")
LINK_POLICIES = ("fair", "edf")
BACKENDS = ("sim", "mp")
MP_COST_MODES = ("sleep", "spin", "none")

#: failure-detection cadence on both backends: a node silent for
#: ``FAILURE_TIMEOUT`` is declared dead, so detection latency is bounded by
#: ``FAILURE_TIMEOUT + HEARTBEAT_INTERVAL`` (seconds)
HEARTBEAT_INTERVAL = 0.05
FAILURE_TIMEOUT = 0.2


@dataclass
class EngineConfig:
    """Configuration for a :class:`~repro.runtime.engine.StreamEngine` run.

    Attributes:
        scheduler: ``"cameo"`` (two-level priority queue), ``"orleans"``
            (thread-local-first bag, the default Orleans behaviour), or
            ``"fifo"`` (one global FIFO run queue of operators).
        policy: priority policy used when ``scheduler == "cameo"``.
        policy_kwargs: extra constructor args (e.g. token rates).
        nodes / workers_per_node: cluster shape.  Workers model vCPUs.
        quantum: minimum re-scheduling grain in seconds (paper default 1 ms).
        use_query_semantics: disable for the Fig. 15 ablation.
        profile_noise_sigma: std-dev of N(0, sigma) perturbation applied to
            profiled costs (Fig. 16).
        placement: ``"round_robin"`` (collocates tenants, the multi-tenant
            setting) or ``"pack_by_job"``.
        record_schedule_timeline: keep (time, operator, progress) tuples for
            every message start (Fig. 7c); off by default to save memory.
        record_completion_timeline: keep one (time, job, stage, index,
            msg_id) tuple per *completed* message — the full per-message
            completion timeline, used by determinism regression tests; off
            by default to save memory.
        switch_cost: worker-side cost (seconds) of switching to a different
            operator activation — models the cache/context-switch penalty
            that makes very fine scheduling quanta expensive (Fig. 14).
        starvation_aging: optional deadline-aging knob (seconds of priority
            credit per second of waiting) — extension discussed in §6.3;
            0 disables it.
        source_mailbox_capacity: optional bound on messages queued at a
            source operator.  When full, further client messages wait in an
            order-preserving blocked queue (ingestion back-pressure) instead
            of growing the mailbox without bound.  None = unbounded.
        fault_schedule: optional :class:`~repro.sim.faults.FaultSchedule`.
            ``None`` or an empty schedule installs no fault machinery at
            all, keeping fault-free runs bit-identical; a non-empty schedule
            enables reliable delivery (ack/retransmit), heartbeat failure
            detection and crash fail-over (see ``runtime/recovery.py``).
        state_recovery: what happens to operator *state* on a crash
            (requires a non-empty fault schedule; ``"none"`` otherwise).
            ``"none"`` keeps the legacy fail-over semantics — evacuated
            operators carry their in-memory state with them, bit-identical
            to earlier revisions.  ``"replay"`` models honest state loss:
            a failed operator restarts pristine and every message since
            sequence 0 is replayed from the senders' retransmit buffers,
            which therefore never truncate.  ``"checkpoint"`` snapshots
            operator state periodically (see ``checkpoint_interval``),
            restores the last snapshot on fail-over and replays only
            messages after it; retransmit buffers truncate at the
            checkpoint watermark instead of growing without bound.
        checkpoint_interval: cadence (seconds of simulated time) of the
            periodic asynchronous state snapshots when ``state_recovery ==
            "checkpoint"``; must be positive in that mode.
        partition_failover: fail-over policy when the fault schedule
            contains :class:`~repro.sim.faults.Partition` windows (no
            effect otherwise).  ``"quorum"`` (default) installs the
            partition-aware failure detector with per-node membership
            views: only observers whose view holds a strict majority may
            declare peers dead and evacuate them, and a node that loses
            quorum fences itself (suspends execution) until the cut
            heals — no split-brain double-spawn, with a heal-time
            reconciliation pass migrating evacuated operators home.
            ``"naive"`` drops the quorum gate: both sides of a cut
            evacuate each other (the double-spawn baseline the
            ext_partition experiment measures against).
        link_capacity: optional shared-link bandwidth in bytes/second per
            node uplink.  ``None`` (default) installs no bandwidth model
            at all — transit stays propagation-only and bit-identical to
            earlier revisions.  When set, every cross-node transfer pays
            ``frame bytes / share`` serialization time on the source
            node's contended uplink (see
            :class:`~repro.sim.network.SharedLink`).
        link_policy: how concurrent transfers share an uplink:
            ``"fair"`` (equal shares) or ``"edf"`` (earliest-deadline-
            first per DCoflow — frames with earlier priority-context
            deadlines preempt; frames without contexts queue behind).
        record_trace: enable the observability plane (``repro.obs``): a
            per-hop message span recorder plus a periodic node sampler
            (on mp, the telemetry bus: each worker samples itself and
            ships the readings in ``TELEMETRY`` frames).  Off by default
            — with tracing off the runtime holds no recorder at all, so
            the hot path is untouched and every figure output stays
            bit-identical.
        trace_sample_interval: cadence of the node sampler
            (:func:`repro.obs.introspect.sample`) when ``record_trace`` is
            on: seconds of simulated time on sim, wall-clock seconds on
            mp.
        shed_expired: enable deadline-aware load shedding — messages whose
            priority-context start deadline ``ddl_M`` is already unmeetable
            are dropped at pop time instead of executed (Cameo-only
            graceful degradation; FIFO/Orleans carry no deadlines to shed
            by, so the knob has no effect without contexts).
        backend: ``"sim"`` (discrete-event simulation, the default) or
            ``"mp"`` (real multiprocessing backend: each node is a worker
            process exchanging framed, batched messages over pipes through
            a :class:`~repro.runtime.mp.transport.ProcessTransport`; see
            ``docs/architecture.md`` "Process backend").  ``nodes`` is the
            worker-process count in mp mode; each worker executes its
            node's operators serially.
        mp_cost_mode: how the mp backend realizes sampled execution costs
            in wall-clock time: ``"sleep"`` occupies the worker for the
            sampled duration (costs overlap across processes, so N workers
            give ~N× throughput even on few cores), ``"spin"`` burns the
            sampled duration as calibrated CPU work (a fixed iteration
            count per second of cost, calibrated once per worker at
            startup under full cluster concurrency — see
            ``docs/architecture.md``), making scaling genuinely CPU-bound
            on hosts with at least one core per worker, ``"none"`` skips
            cost realization (pure runtime-overhead measurement).
        mp_loss_rate: probability that the mp backend's receiver drops an
            incoming data entry before admission (simulated lossy network
            over the real pipes) — exercises the go-back-N retransmit
            path end to end.  0 disables loss.
        mp_realtime: pace the ingest replay on the wall clock (trace time
            = wall time), making wall-clock latencies comparable to the
            job latency constraints.  Off = replay as fast as the workers
            absorb (throughput benchmarking).
        mp_wall_timeout: hard wall-clock cap (seconds) on an mp run;
            ``None`` derives a generous default from the run duration.
    """

    scheduler: str = "cameo"
    policy: str = "llf"
    policy_kwargs: dict = field(default_factory=dict)
    nodes: int = 1
    workers_per_node: int = 4
    quantum: float = 0.001
    use_query_semantics: bool = True
    profile_noise_sigma: float = 0.0
    placement: str = "round_robin"
    record_schedule_timeline: bool = False
    record_completion_timeline: bool = False
    switch_cost: float = 0.0
    starvation_aging: float = 0.0
    source_mailbox_capacity: Optional[int] = None
    fault_schedule: Optional["FaultSchedule"] = None
    state_recovery: str = "none"
    checkpoint_interval: float = 0.0
    partition_failover: str = "quorum"
    link_capacity: Optional[float] = None
    link_policy: str = "fair"
    record_trace: bool = False
    trace_sample_interval: float = 0.05
    shed_expired: bool = False
    backend: str = "sim"
    mp_cost_mode: str = "sleep"
    mp_loss_rate: float = 0.0
    mp_realtime: bool = True
    mp_wall_timeout: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {self.scheduler!r}; expected {SCHEDULERS}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; expected {BACKENDS}")
        if self.mp_cost_mode not in MP_COST_MODES:
            raise ValueError(
                f"unknown mp cost mode {self.mp_cost_mode!r}; expected {MP_COST_MODES}"
            )
        if not 0.0 <= self.mp_loss_rate < 1.0:
            raise ValueError("mp loss rate must be within [0, 1)")
        if self.mp_wall_timeout is not None and self.mp_wall_timeout <= 0:
            raise ValueError("mp wall timeout must be positive")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; expected {POLICIES}")
        if self.nodes < 1 or self.workers_per_node < 1:
            raise ValueError("cluster must have at least one node and one worker")
        if self.quantum < 0:
            raise ValueError("quantum must be non-negative")
        if self.profile_noise_sigma < 0:
            raise ValueError("profile noise sigma must be non-negative")
        if self.switch_cost < 0:
            raise ValueError("switch cost must be non-negative")
        if self.starvation_aging < 0:
            raise ValueError("starvation aging must be non-negative")
        if self.source_mailbox_capacity is not None and self.source_mailbox_capacity < 1:
            raise ValueError("source mailbox capacity must be >= 1")
        if self.state_recovery not in STATE_RECOVERY_MODES:
            raise ValueError(
                f"unknown state recovery mode {self.state_recovery!r}; "
                f"expected {STATE_RECOVERY_MODES}"
            )
        if self.state_recovery != "none":
            if self.fault_schedule is None or not self.fault_schedule.enabled:
                raise ValueError(
                    "state recovery requires a non-empty fault schedule "
                    "(fault-free runs install no recovery machinery)"
                )
            if self.state_recovery == "checkpoint" and self.checkpoint_interval <= 0:
                raise ValueError(
                    "checkpoint mode requires a positive checkpoint interval"
                )
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint interval must be non-negative")
        if self.partition_failover not in PARTITION_FAILOVER_MODES:
            raise ValueError(
                f"unknown partition fail-over mode {self.partition_failover!r}; "
                f"expected {PARTITION_FAILOVER_MODES}"
            )
        if self.link_capacity is not None and self.link_capacity <= 0:
            raise ValueError("link capacity must be positive")
        if self.link_policy not in LINK_POLICIES:
            raise ValueError(
                f"unknown link policy {self.link_policy!r}; "
                f"expected {LINK_POLICIES}"
            )
        if self.trace_sample_interval <= 0:
            raise ValueError("trace sample interval must be positive")
        if self.fault_schedule is not None:
            self.fault_schedule.validate_cluster(self.nodes)

    @property
    def contexts_enabled(self) -> bool:
        """Whether PCs/RCs are generated and costs profiled: on for Cameo,
        off for the baselines (which carry no deadlines to schedule by)."""
        return self.scheduler == "cameo"

    @property
    def total_workers(self) -> int:
        return self.nodes * self.workers_per_node
