"""Per-job metric collection during a simulation run.

The hub records, per job: every sink output (time, end-to-end latency,
tuples), start-deadline violations observed by the scheduler, and message
counts; plus per-worker busy time for utilization (Fig. 1) and an optional
execution timeline, one record per completed execution (Fig. 7c, the
split-brain sweep, the determinism tests).
"""

from __future__ import annotations

import numpy as np

from repro.metrics.stats import LatencySummary, RunningStat, summarize


def _fold(into, other) -> None:
    """Apply the ``_MERGE_EXTEND`` / ``_MERGE_SUM`` / ``_MERGE_MAX`` rules
    of ``into``'s class to fold ``other``'s attributes into it."""
    for name in into._MERGE_EXTEND:
        getattr(into, name).extend(getattr(other, name))
    for name in into._MERGE_SUM:
        setattr(into, name, getattr(into, name) + getattr(other, name))
    for name in into._MERGE_MAX:
        setattr(into, name, max(getattr(into, name), getattr(other, name)))


class JobMetrics:
    """Recorded outputs and counters for one job."""

    # how a worker process's record folds into the aggregate (:meth:`merge`):
    # every instance attribute is named by exactly one of these tuples
    # (pinned by tests/metrics/test_collectors.py), so a new counter cannot
    # silently read 0 on the mp backend
    _MERGE_EXTEND = ("output_times", "latencies", "output_tuples",
                     "output_values", "source_events")
    _MERGE_SUM = ("start_violations", "backpressure_events",
                  "messages_processed", "messages_shed", "tuples_shed",
                  "tuples_ingested", "tuples_processed", "late_tuples")
    _MERGE_MAX = ("max_source_mailbox",)
    _MERGE_BY_HAND = ("queueing", "execution")  # per-stage RunningStat.merge
    _NOT_MERGED = ("name", "group", "latency_constraint")  # identity

    def __init__(self, name: str, group: str, latency_constraint: float):
        self.name = name
        self.group = group
        self.latency_constraint = latency_constraint
        self.output_times: list[float] = []
        self.latencies: list[float] = []
        self.output_tuples: list[int] = []
        self.output_values: list[float] = []  # sum of result values per output
        self.start_violations = 0
        self.backpressure_events = 0  # client messages held by back-pressure
        self.max_source_mailbox = 0   # memory-pressure proxy
        self.messages_processed = 0
        self.messages_shed = 0      # deadline-expired messages dropped unexecuted
        self.tuples_shed = 0        # event tuples carried by shed messages
        self.tuples_ingested = 0
        self.tuples_processed = 0  # tuples consumed at source operators
        self.late_tuples = 0  # dropped behind an emitted window (set at run end)
        self.source_events: list[tuple[float, int]] = []  # (time, tuples)
        #: per-stage queueing-delay running stats (mailbox wait per message)
        self.queueing: dict[str, RunningStat] = {}
        #: per-stage execution-time running stats
        self.execution: dict[str, RunningStat] = {}

    def queueing_stat(self, stage: str) -> RunningStat:
        """Get-or-create the per-stage mailbox-wait stat.

        The single source of truth for queueing bookkeeping: the dispatch
        loop caches this stat on the operator runtime and feeds it the
        same wait value it hands the span recorder, so per-stage stats
        and traces can never disagree."""
        stat = self.queueing.get(stage)
        if stat is None:
            stat = RunningStat()
            self.queueing[stage] = stat
        return stat

    def execution_stat(self, stage: str) -> RunningStat:
        """Get-or-create the per-stage execution-cost stat (see
        :meth:`queueing_stat`)."""
        stat = self.execution.get(stage)
        if stat is None:
            stat = RunningStat()
            self.execution[stage] = stat
        return stat

    def merge(self, other: "JobMetrics") -> None:
        """Fold one worker's record of this job into the aggregate."""
        _fold(self, other)
        for stage, stat in other.queueing.items():
            self.queueing_stat(stage).merge(stat)
        for stage, stat in other.execution.items():
            self.execution_stat(stage).merge(stat)

    def record_queueing(self, stage: str, delay: float) -> None:
        self.queueing_stat(stage).add(delay)

    def record_execution(self, stage: str, cost: float) -> None:
        self.execution_stat(stage).add(cost)

    def breakdown(self) -> list[tuple[str, float, float, float]]:
        """Per-stage ``(stage, mean queueing, max queueing, mean execution)``
        rows — where time goes inside the pipeline."""
        stages = sorted(set(self.queueing) | set(self.execution))
        rows = []
        for stage in stages:
            queueing = self.queueing.get(stage)
            execution = self.execution.get(stage)
            rows.append((
                stage,
                queueing.mean if queueing else 0.0,
                queueing.max if queueing else 0.0,
                execution.mean if execution else 0.0,
            ))
        return rows

    def record_output(self, time: float, latency: float, tuples: int,
                      value: float = 0.0) -> None:
        self.output_times.append(time)
        self.latencies.append(latency)
        self.output_tuples.append(tuples)
        self.output_values.append(value)

    @property
    def output_count(self) -> int:
        return len(self.latencies)

    def latency_array(self) -> np.ndarray:
        return np.asarray(self.latencies, dtype=np.float64)

    def summary(self) -> LatencySummary:
        return summarize(self.latencies)

    def success_rate(self) -> float:
        """Fraction of outputs meeting the job's latency constraint (Fig. 10)."""
        if not self.latencies:
            return float("nan")
        array = self.latency_array()
        return float((array <= self.latency_constraint).mean())

    def on_time_count(self) -> int:
        """Number of outputs that met the latency constraint."""
        if not self.latencies:
            return 0
        return int((self.latency_array() <= self.latency_constraint).sum())

    def completion_success_rate(self, expected_outputs: int) -> float:
        """On-time outputs over *expected* outputs: an output that never
        materialised (stalled pipeline) counts as a miss.  Use when a
        scheduler can starve a job into silence — plain ``success_rate``
        would then survey only the few outputs it did produce."""
        if expected_outputs <= 0:
            return float("nan")
        return min(1.0, self.on_time_count() / expected_outputs)

    def throughput(self, duration: float) -> float:
        """Tuples consumed at the job's sources per second — the paper's
        events/s notion of throughput (robust to aggregation fan-in)."""
        if duration <= 0:
            return float("nan")
        return self.tuples_processed / duration

    def output_rate(self, duration: float) -> float:
        """Result tuples per second at the sink."""
        if duration <= 0:
            return float("nan")
        return sum(self.output_tuples) / duration

    def source_rate_timeline(self, bucket: float = 1.0) -> list[tuple[float, float]]:
        """(bucket_time, tuples/s consumed at sources) series (Fig. 6)."""
        if not self.source_events:
            return []
        buckets: dict[int, float] = {}
        for time, tuples in self.source_events:
            index = int(time // bucket)
            buckets[index] = buckets.get(index, 0.0) + tuples
        return [(i * bucket, total / bucket) for i, total in sorted(buckets.items())]

    def latency_timeline(self, bucket: float = 1.0) -> list[tuple[float, float]]:
        """(bucket_time, mean_latency) series (Figs. 9a-c)."""
        if not self.latencies:
            return []
        buckets: dict[int, list[float]] = {}
        for time, latency in zip(self.output_times, self.latencies):
            buckets.setdefault(int(time // bucket), []).append(latency)
        return [
            (index * bucket, float(np.mean(values)))
            for index, values in sorted(buckets.items())
        ]


class MetricsHub:
    """All metrics for one engine run."""

    # fold rules of :meth:`merge` (see :class:`JobMetrics`); not merged are
    # the coordinator's own counters and those only the sim's recovery,
    # partition and bandwidth machinery ever moves
    _MERGE_EXTEND = ("timeline",)
    _MERGE_SUM = ("total_messages", "total_acks", "messages_lost_network",
                  "messages_lost_crash", "messages_dropped_down",
                  "retransmissions", "retransmit_backoff_time",
                  "duplicates_dropped", "acks_lost")
    _MERGE_MAX = ()
    _MERGE_BY_HAND = ("_jobs", "worker_busy")
    _NOT_MERGED = (
        "crashes", "failure_detections", "node_restarts",
        "checkpoints_taken", "checkpoint_bytes", "state_restores",
        "messages_replayed_recovery", "partitions_observed",
        "partition_heals", "messages_dropped_partition",
        "acks_dropped_partition", "nodes_fenced",
        "failovers_suppressed_no_quorum", "reconciliations", "double_spawns",
        "link_bytes_sent", "link_transfer_seconds",
    )

    def __init__(self):
        self._jobs: dict[str, JobMetrics] = {}
        #: (finished, job, stage, operator_index, msg_id, started) per
        #: completed execution, recorded only when ``record_timeline`` is on
        self.timeline: list[tuple] = []
        self.worker_busy: dict[tuple[int, int], float] = {}
        self.total_messages = 0
        self.total_acks = 0
        # -- fault & recovery counters (stay zero on fault-free runs) -----
        self.messages_lost_network = 0  # data transmissions dropped by loss models
        self.messages_lost_crash = 0    # queued messages lost to node crashes
        self.messages_dropped_down = 0  # arrivals at a down node (evaporated)
        self.retransmissions = 0        # go-back-N replays by reliable delivery
        #: seconds spent waiting on retransmit timers before replaying
        #: (summed over retransmitting timer expiries across all channels)
        self.retransmit_backoff_time = 0.0
        self.duplicates_dropped = 0     # retransmitted copies deduplicated
        self.acks_lost = 0              # delivery-layer acks dropped by loss
        self.crashes = 0                # fail-stop events executed
        self.node_restarts = 0          # nodes brought back up
        # -- state recovery (stay zero unless state_recovery != "none") ---
        self.checkpoints_taken = 0      # operator snapshots recorded
        self.checkpoint_bytes = 0       # Σ serialized snapshot sizes
        self.state_restores = 0         # operators rebuilt after a crash
        #: Σ processed messages whose effects were lost to a restore and
        #: must be replayed (the rollback distance of every restore)
        self.messages_replayed_recovery = 0
        #: (node_id, crash_time, detection_time) per declared failure
        self.failure_detections: list[tuple[int, float, float]] = []
        # -- partitions & quorum (stay zero without Partition faults) -----
        self.partitions_observed = 0    # partition windows that opened
        self.partition_heals = 0        # partition windows that closed
        self.messages_dropped_partition = 0  # data frames severed at the cut
        self.acks_dropped_partition = 0      # acks severed at the cut
        self.nodes_fenced = 0           # quorum-loss fencing transitions
        #: fail-overs a no-quorum observer wanted but was denied
        self.failovers_suppressed_no_quorum = 0
        self.reconciliations = 0        # heal-time migrate-home passes
        #: operators evacuated while their old instance was still executing
        #: (naive fail-over only; quorum mode keeps this at zero)
        self.double_spawns = 0
        # -- shared-link bandwidth (stay zero without link_capacity) ------
        self.link_bytes_sent = 0.0      # Σ frame bytes serialized on uplinks
        self.link_transfer_seconds = 0.0  # Σ serialization time paid

    def merge(self, other: "MetricsHub") -> None:
        """Fold one worker's hub into the aggregate (jobs pre-registered)."""
        _fold(self, other)
        for name, job in other._jobs.items():
            self._jobs[name].merge(job)
        self.worker_busy.update(other.worker_busy)

    def record_timeline_point(
        self, finished: float, job: str, stage: str, operator_index: int,
        msg_id: int, started: float,
    ) -> None:
        """Record one completed execution (one tuple append)."""
        self.timeline.append(
            (finished, job, stage, operator_index, msg_id, started)
        )

    def register_job(self, name: str, group: str, latency_constraint: float) -> JobMetrics:
        if name in self._jobs:
            raise ValueError(f"job {name!r} registered twice")
        metrics = JobMetrics(name, group, latency_constraint)
        self._jobs[name] = metrics
        return metrics

    def job(self, name: str) -> JobMetrics:
        return self._jobs[name]

    @property
    def job_names(self) -> list[str]:
        return list(self._jobs)

    def jobs_in_group(self, group: str) -> list[JobMetrics]:
        return [m for m in self._jobs.values() if m.group == group]

    def group_latencies(self, group: str) -> np.ndarray:
        """Pooled latency sample across all jobs of a tenant group."""
        arrays = [m.latency_array() for m in self.jobs_in_group(group)]
        arrays = [a for a in arrays if a.size]
        if not arrays:
            return np.empty(0)
        return np.concatenate(arrays)

    def group_summary(self, group: str) -> LatencySummary:
        return summarize(self.group_latencies(group))

    def group_success_rate(self, group: str) -> float:
        jobs = self.jobs_in_group(group)
        successes = total = 0
        for job in jobs:
            array = job.latency_array()
            successes += int((array <= job.latency_constraint).sum())
            total += array.size
        return successes / total if total else float("nan")

    def group_throughput(self, group: str, duration: float) -> float:
        return sum(j.throughput(duration) for j in self.jobs_in_group(group))

    def detection_latencies(self) -> list[float]:
        """Seconds from each crash to its failure declaration."""
        return [det - crash for _, crash, det in self.failure_detections]

    def mean_detection_latency(self) -> float:
        latencies = self.detection_latencies()
        return float(np.mean(latencies)) if latencies else float("nan")

    def shed_totals(self) -> tuple[int, int]:
        """(messages, tuples) shed across all jobs."""
        messages = sum(j.messages_shed for j in self._jobs.values())
        tuples = sum(j.tuples_shed for j in self._jobs.values())
        return messages, tuples

    def fault_report(self) -> dict:
        """Fault/recovery counters as one JSON-able dict (``repro faults``)."""
        shed_messages, shed_tuples = self.shed_totals()
        return {
            "crashes": self.crashes,
            "node_restarts": self.node_restarts,
            "failure_detections": len(self.failure_detections),
            "mean_detection_latency": self.mean_detection_latency(),
            "messages_lost_network": self.messages_lost_network,
            "messages_lost_crash": self.messages_lost_crash,
            "messages_dropped_down": self.messages_dropped_down,
            "retransmissions": self.retransmissions,
            "retransmit_backoff_time": self.retransmit_backoff_time,
            "duplicates_dropped": self.duplicates_dropped,
            "acks_lost": self.acks_lost,
            "checkpoints_taken": self.checkpoints_taken,
            "checkpoint_bytes": self.checkpoint_bytes,
            "state_restores": self.state_restores,
            "messages_replayed_recovery": self.messages_replayed_recovery,
            "messages_shed": shed_messages,
            "tuples_shed": shed_tuples,
            "partitions": {
                "partitions_observed": self.partitions_observed,
                "partition_heals": self.partition_heals,
                "messages_dropped_partition": self.messages_dropped_partition,
                "acks_dropped_partition": self.acks_dropped_partition,
                "nodes_fenced": self.nodes_fenced,
                "failovers_suppressed_no_quorum":
                    self.failovers_suppressed_no_quorum,
                "reconciliations": self.reconciliations,
                "double_spawns": self.double_spawns,
            },
            "link_bytes_sent": self.link_bytes_sent,
            "link_transfer_seconds": self.link_transfer_seconds,
        }

    def record_worker_busy(self, node_id: int, worker_id: int, busy_time: float) -> None:
        self.worker_busy[(node_id, worker_id)] = busy_time

    def utilization(self, duration: float) -> float:
        """Mean worker utilization over the run (Fig. 1's x-axis)."""
        if not self.worker_busy or duration <= 0:
            return float("nan")
        return float(np.mean([b / duration for b in self.worker_busy.values()]))
