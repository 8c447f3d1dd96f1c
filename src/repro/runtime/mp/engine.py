"""MpStreamEngine: drop-in engine façade for the process backend.

Runs the same two phases every mp run needs:

1. **Capture** — the engine exposes the duck-typed surface the source
   drivers use (``.sim`` as a bare event kernel, ``.rng`` as the named
   substream registry, ``.ingest`` as the recorder), so unchanged
   :class:`~repro.workloads.arrivals.SourceDriver` machinery produces a
   bit-identical ingest trace to what the sim backend would have fed its
   transport: same arrival instants, same batch contents, same order.
2. **Replay** — :class:`~repro.runtime.mp.coordinator.MpCoordinator`
   sequences the trace (per-source seqs), forks the workers and replays
   it, paced against the wall clock (``mp_realtime=True``) or flooded as
   fast as the workers drain it (benchmarks).  The trace is sharded by
   source owner and each worker's :class:`~repro.runtime.mp.ingest.
   IngestDriver` replays its fork-inherited shard locally; after a
   fail-over the new owner of a moved source replays it from its own
   copy of the trace, past the watermark the coordinator hands over
   (coordinator = pure control plane).

After :meth:`run`, ``.metrics`` holds the merged
:class:`~repro.metrics.collectors.MetricsHub` of every worker and
``.info`` the run's transport-level facts (wall time, per-worker stats,
FIFO-audit counters, survivor set, the watermark each moved source
resumed from).  With the observability plane on (``record_trace``),
``.tracer`` holds the merged cross-process
:class:`~repro.obs.recorder.TraceRecorder` (spans and every worker's node
samples) and ``.process_map`` the real worker pids for the Perfetto
exporter — the same downstream surface the sim engine exposes, so
exporters, schema validation and attribution run unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.dataflow.jobs import JobSpec
from repro.metrics.collectors import MetricsHub
from repro.runtime.config import EngineConfig
from repro.runtime.lifecycle import check_stage_rescale
from repro.runtime.mp.coordinator import MpCoordinator
from repro.runtime.topology import client_key
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry


class MpStreamEngine:
    """Runs a set of jobs on real worker processes (``backend="mp"``)."""

    def __init__(self, config: EngineConfig, jobs: list[JobSpec], policy=None):
        names = [j.name for j in jobs]
        if len(set(names)) != len(names):
            raise ValueError("job names must be unique")
        if config.backend != "mp":
            raise ValueError(f"MpStreamEngine needs backend='mp', got {config.backend!r}")
        self.config = config
        self.jobs = {j.name: j for j in jobs}
        self._job_list = list(jobs)
        self._policy = policy
        # capture surface: drivers schedule on .sim and call .ingest
        self.sim = Simulator()
        self.rng = RngRegistry(config.seed)
        self.metrics: MetricsHub = MetricsHub()
        self.info: dict = {}
        #: observability surface (None unless the obs plane is on)
        self.tracer = None
        self.process_map: dict | None = None
        self.fault_timeline = None
        self._trace: list[tuple] = []
        self._rescales: list[tuple[float, str, str, int]] = []
        self._ran = False

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
        """Record one ingest batch at the current capture-clock instant."""
        if job_name not in self.jobs:
            raise KeyError(f"unknown job {job_name!r}")
        self._trace.append((
            self.sim.now,
            client_key(job_name, stage_name, source_index),
            np.asarray(logical_times, dtype=np.float64),
            None if values is None else np.asarray(values),
            None if keys is None else np.asarray(keys),
            sorted_times,
        ))

    def rescale_stage_at(self, when: float, job_name: str, stage_name: str,
                         parallelism: int) -> None:
        """Schedule a key-partitioned stage rescale at wall time ``when``.

        The coordinator announces it with a ``RESCALE`` frame; the worker
        applies it at its next quiescent point for the stage (empty stage
        mailboxes), splitting/merging every instance's state store by the
        new key partition — the process-backend analogue of
        ``OperatorLifecycle.rescale_stage``.  Single-node runs only: with
        the whole topology in one process, state moves by reference; a
        cross-process state transfer protocol is future work."""
        if self.config.nodes != 1:
            raise ValueError(
                "stage rescale on the mp backend needs nodes=1 (state "
                "moves within one process)"
            )
        check_stage_rescale(self.jobs, job_name, stage_name, parallelism)
        self._rescales.append((when, job_name, stage_name, parallelism))

    def run(self, until: float) -> None:
        """Capture the ingest trace up to ``until``, then replay it for real."""
        if self._ran:
            raise RuntimeError("an MpStreamEngine run is single-shot")
        self._ran = True
        self.sim.run(until=until)
        coordinator = MpCoordinator(
            self.config, self._job_list, self._policy, self._trace,
            rescales=self._rescales, until=until,
        )
        self.metrics = coordinator.run()
        self.info = coordinator.info
        self.tracer = coordinator.tracer
        if self.tracer is not None:
            self.process_map = {
                node: {"pid": pid, "name": f"worker {node} (pid {pid})"}
                for node, pid in coordinator.pids.items()
            }
        if coordinator.kills:
            from repro.sim.faults import FaultTimeline

            timeline = FaultTimeline()
            for when, node_id in coordinator.kills:
                timeline.record(when, "crash", f"node {node_id} killed")
            for node_id, crash, detect in self.metrics.failure_detections:
                timeline.record(
                    detect, "failover",
                    f"node {node_id} declared dead (crashed ~{crash:.3f}s)",
                )
            self.fault_timeline = timeline

    def backoff_by_channel(self) -> dict[str, dict]:
        """Per-channel retransmit accounting, summed per channel label
        over every worker's report (a channel's sender half lives in its
        producing worker; after a fail-over two workers may name it)."""
        merged: dict[str, dict] = {}
        for stats in self.info.get("reports", {}).values():
            for label, entry in stats["backoff_by_channel"].items():
                into = merged.setdefault(label, dict.fromkeys(entry, 0))
                for key, value in entry.items():
                    into[key] += value
        return merged
