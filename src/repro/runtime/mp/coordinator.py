"""Coordinator of the mp backend: spawn, watch, hand over, collect.

The coordinator is the parent process.  It creates the full pipe mesh
(coordinator <-> worker plus worker <-> worker, all before forking so
every process inherits its ends), forks one worker per configured node,
watches heartbeats for failures, and finally collects and merges every
worker's :class:`~repro.metrics.collectors.MetricsHub`.

Each worker inherits its shard of the sequenced trace — and the whole
trace beside it — through fork and replays its sources locally, so the
coordinator is **pure control plane**: no data flows through the parent.

Crashes are the config's ``fault_schedule``: the coordinator SIGKILLs
each crash window's node at the window's start, and the worker stays dead
(the mp backend has no rejoin; channel loss is the workers' own, see
:mod:`repro.runtime.mp.transport`).

Ingest durability: every trace entry carries a per-source sequence
number, and the coordinator keeps the highest processed watermark the
owners' heartbeats report per source.  When a worker dies, the dead
node's operators are reassigned round-robin to the survivors and a
``REWIRE`` frame announces the new placement to everyone together with
the watermark of every moved source (senders re-incarnate their channels
with a reset + replay).  The new owner of a moved source replays it from
its own copy of the trace, past that watermark.  Messages that had been
*admitted* to the dead node's mailboxes but not processed are re-sent by
their upstream's go-back-N buffer; in-flight window state of moved
operators is rebuilt from scratch — the same at-least-once contract as
the sim backend's recovery layer, realized across real process
boundaries.

Termination is a two-wave quiescence check (:class:`EndOfRun`).  A
worker reports *idle* when it holds no operator, its run queue is empty,
its ingest is exhausted, every message it sent has been acked as
processed, and no ack or frame waits to leave; each heartbeat also
carries the worker's mailbox-admission count, and a worker whose ingest
is exhausted heartbeats as soon as it turns idle.  Wave one is every live
worker's latest heartbeat: once every source's watermark has reached its
last sequence number and wave one is all idle, the coordinator sends
each live worker a ``PROBE``, which is answered at once.  The run ends
when every answer is idle with the admission count of wave one; a
non-idle report, a changed count or a fail-over cancels the round.  Why
that is quiescence: every probe leaves after every wave-one report, so
at the probe instant each worker sits between its two reports, in which
it admitted nothing and so did no work and sent nothing; and what it sent
before its idle wave-one report was already processed.  No message is in
flight and no worker has work, and nothing can start any.  A hard
wall-clock deadline (``mp_wall_timeout``) bounds the run if quiescence is
never reached.  ``info["wall_time"]`` runs from the epoch to the merged
reports: the probe round trip, ``STOP``, report collection and the merge
are in it.

After ``START`` the coordinator is one selector loop over its worker
pipe ends and the workers' process sentinels.  It blocks until a frame
arrives, a worker exits, a queued frame can be written, or the nearest
timer is due: the next kill or rescale instant, the failure deadline of
an exited worker, or the wall limit.
"""

from __future__ import annotations

import multiprocessing
import pickle
import selectors
import socket
import time
from collections import deque
from selectors import EVENT_READ, EVENT_WRITE

# the first ``np.unique`` of a process imports ``numpy.ma`` (35-40 ms on a
# 2-core Xeon); loaded here, every worker inherits it through fork instead
# of stalling its loop on the import at its first window
import numpy.ma  # noqa: F401

from repro.dataflow.operators import OpAddress
from repro.metrics.collectors import MetricsHub
from repro.runtime.config import FAILURE_TIMEOUT
from repro.runtime.mp.frames import (
    HB,
    PROBE,
    READY,
    REPORT,
    RESCALE,
    REWIRE,
    START,
    STOP,
    TRACE,
    PipeEnd,
    recv_frame,
    send_frame,
)
from repro.runtime.mp.ingest import ingest_slack, sequence_trace, shard_by_owner
from repro.runtime.mp.worker import conn_wait, worker_main
from repro.runtime.placement import place_operators


def _sort_outputs(job_metrics) -> None:
    """Worker reports interleave; restore global time order per job."""
    if not job_metrics.output_times:
        job_metrics.source_events.sort()
        return
    order = sorted(range(len(job_metrics.output_times)),
                   key=job_metrics.output_times.__getitem__)
    job_metrics.output_times = [job_metrics.output_times[i] for i in order]
    job_metrics.latencies = [job_metrics.latencies[i] for i in order]
    job_metrics.output_tuples = [job_metrics.output_tuples[i] for i in order]
    job_metrics.output_values = [job_metrics.output_values[i] for i in order]
    job_metrics.source_events.sort()


class EndOfRun:
    """The two-wave end-of-run rule, apart from pipes and clocks.

    :meth:`report` takes every heartbeat, :meth:`probe` opens a round
    when wave one (each live worker's latest report) is all idle, and
    :meth:`done` tells when every live worker answered the open round idle
    with its wave-one admission count."""

    __slots__ = ("_idle", "_round", "_wave", "_answered")

    def __init__(self):
        #: node -> admission count of its latest report, while that is idle
        self._idle: dict[int, int] = {}
        #: id of the latest round (probe ids start at 1)
        self._round = 0
        #: node -> wave-one admission count of the open round (None: closed)
        self._wave: dict[int, int] | None = None
        self._answered: set[int] = set()

    def report(self, node: int, idle: bool, admissions: int, probe: int) -> None:
        """One heartbeat of ``node``; ``probe`` is the last round it
        answered."""
        if idle:
            self._idle[node] = admissions
        else:
            self._idle.pop(node, None)
        if self._wave is None:
            return
        if not idle or self._wave.get(node) != admissions:
            self._wave = None  # it worked since wave one
        elif probe == self._round:
            self._answered.add(node)

    def cancel(self) -> None:
        """A fail-over: drop the open round and every report before it."""
        self._wave = None
        self._idle.clear()

    def probe(self, alive: set) -> int | None:
        """Open a round if none is open and every live worker's latest
        report is idle; returns the probe id to send, else None."""
        if self._wave is not None or not alive <= self._idle.keys():
            return None
        self._round += 1
        self._wave = {node: self._idle[node] for node in alive}
        self._answered = set()
        return self._round

    def done(self, alive: set) -> bool:
        return self._wave is not None and alive <= self._answered


class MpCoordinator:
    """Parent-process orchestration of one mp-backend run."""

    def __init__(self, config, jobs: list, policy, trace: list,
                 rescales: list | None = None, until: float = 0.0):
        self._config = config
        self._jobs = jobs
        self._policy = policy
        self._trace = trace
        #: (when, node) of every worker kill, in time order: a node dies at
        #: the start of its first crash window (no mp worker rejoins)
        first: dict[int, float] = {}
        for crash in config.fault_schedule.crashes if config.fault_schedule else ():
            first[crash.node] = min(crash.start, first.get(crash.node, crash.start))
        self.kills = sorted((when, node) for node, when in first.items())
        self._rescales = sorted(rescales or [])
        self._until = until
        self._n = config.nodes
        #: live placement view (address -> node), updated on fail-over
        self._op_node = place_operators(config, jobs)
        #: sequenced trace: (trace_time, entry) pairs + final seq per source
        self._timed, self._last_seq = sequence_trace(trace)
        #: one {src_key: watermark resumed from} per hand-over, in order
        self._resumed: list[dict] = []
        self.info: dict = {}
        # observability plane (populated only under record_trace)
        self._merger = None
        if config.record_trace:
            from repro.obs.merge import SpanMerger

            self._merger = SpanMerger()
        #: merged TraceRecorder after the run
        self.tracer = None
        #: node_id -> pid of its worker process
        self.pids: dict[int, int] = {}
        #: node_id -> this process's open end of the pipe to that worker
        self._pipes: dict[int, PipeEnd] = {}
        self._selector = None

    def _source_owner(self, src_key: tuple) -> int:
        _, job, stage, index = src_key
        return self._op_node[OpAddress(job, stage, index)]

    # ------------------------------------------------------------------

    def run(self) -> MetricsHub:
        config = self._config
        ctx = multiprocessing.get_context("fork")
        coord_ends, child_ends = [], []
        for _ in range(self._n):
            parent, child = socket.socketpair()
            coord_ends.append(parent)
            child_ends.append(child)
        peer_ends: dict[int, dict] = {i: {} for i in range(self._n)}
        for i in range(self._n):
            for j in range(i + 1, self._n):
                end_i, end_j = socket.socketpair()
                peer_ends[i][j] = end_i
                peer_ends[j][i] = end_j
        # each worker inherits its trace shard, and the whole trace for a
        # fail-over, through fork (no pickling, copy-on-write pages)
        shards = shard_by_owner(self._timed, self._source_owner, self._n,
                                ingest_slack(config, self._jobs))
        # every pipe end worker i inherits but does not own — it must
        # close them on startup so a dead peer's ends actually reach
        # zero holders: reads see EOF and writes raise (see worker_main)
        unused = {
            i: [sock for sock in coord_ends]
            + [child_ends[j] for j in range(self._n) if j != i]
            + [
                sock
                for j in range(self._n)
                if j != i
                for sock in peer_ends[j].values()
            ]
            for i in range(self._n)
        }
        procs = [
            ctx.Process(
                target=worker_main,
                args=(i, config, self._jobs, self._policy,
                      child_ends[i], peer_ends[i], shards[i], self._timed,
                      unused[i]),
                daemon=True,
            )
            for i in range(self._n)
        ]
        for proc in procs:
            proc.start()
        self.pids = {i: proc.pid for i, proc in enumerate(procs)}
        # the parent needs only its coordinator ends; close the rest so
        # worker-side buffers are owned by the workers alone
        for sock in child_ends:
            sock.close()
        for ends in peer_ends.values():
            for sock in ends.values():
                sock.close()
        self._pipes = {i: PipeEnd(sock, i) for i, sock in enumerate(coord_ends)}
        self._selector = selectors.DefaultSelector()

        try:
            return self._orchestrate(procs)
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
            for proc in procs:
                proc.join(timeout=5.0)
            for pipe in self._pipes.values():
                pipe.close()
            self._selector.close()

    # ------------------------------------------------------------------

    def _orchestrate(self, procs: list) -> MetricsHub:
        config = self._config
        pipes = self._pipes
        for i in pipes:
            self._expect(i, READY)

        epoch = time.monotonic()
        for pipe in pipes.values():
            send_frame(pipe, START, epoch)
        selector = self._selector
        for pipe in pipes.values():
            pipe.watch(selector)
        for i, proc in enumerate(procs):
            selector.register(proc.sentinel, EVENT_READ, i)  # ready on exit

        last_seq = self._last_seq
        #: per-source processed watermark, as the owners' heartbeats report
        acked = dict.fromkeys(last_seq, -1)
        alive = set(range(self._n))
        #: workers whose process has exited (sentinel seen)
        exited: set[int] = set()
        last_hb = {i: 0.0 for i in alive}
        end = EndOfRun()
        kills = deque(self.kills)
        rescales = deque(self._rescales)
        crash_time: dict[int, float] = {}
        fault_log: list[tuple[int, float, float]] = []
        crashes = 0
        wall_limit = config.mp_wall_timeout or max(30.0, self._until * 3.0 + 10.0)
        forced_stop = False

        def elapsed() -> float:
            return time.monotonic() - epoch

        events: list = []
        while True:
            self._drain_control(events, exited, last_hb, end, acked, elapsed)
            now = elapsed()
            while kills and now >= kills[0][0]:
                _, node_id = kills.popleft()
                if node_id in alive and procs[node_id].is_alive():
                    procs[node_id].kill()
                    crash_time[node_id] = now
                    crashes += 1
            while rescales and now >= rescales[0][0]:
                _, job_name, stage_name, parallelism = rescales.popleft()
                for i in alive:
                    self._send(i, RESCALE, (job_name, stage_name, parallelism))
            # exit-confirmed failure rule: silent for FAILURE_TIMEOUT *and*
            # the process has exited
            dead = [
                i for i in alive
                if i in exited and now - last_hb[i] > FAILURE_TIMEOUT
            ]
            for node_id in dead:
                if len(alive) == 1:
                    raise RuntimeError("every worker died; no survivors")
                alive.discard(node_id)
                fault_log.append(
                    (node_id, crash_time.get(node_id, last_hb[node_id]), now)
                )
                self._feed(self._fail_over(node_id, alive), acked, alive)
                end.cancel()  # re-quiesce after the rewire
            if end.done(alive):
                break
            if all(acked[k] >= last_seq[k] for k in last_seq):
                probe = end.probe(alive)
                if probe is not None:
                    for i in alive:
                        self._send(i, PROBE, probe)
            if now > wall_limit:
                forced_stop = True
                break
            wake = wall_limit
            if kills:
                wake = min(wake, kills[0][0])
            if rescales:
                wake = min(wake, rescales[0][0])
            for i in alive & exited:
                wake = min(wake, last_hb[i] + FAILURE_TIMEOUT)
            timeout = wake - elapsed()
            events = (conn_wait(selector, timeout) if timeout > 0
                      else selector.select(0))

        deadline = time.monotonic() + 30.0
        for i in sorted(alive):
            pipe = pipes.get(i)
            if pipe is None:
                continue
            try:
                send_frame(pipe, STOP, timeout=30.0)
            except (BrokenPipeError, ConnectionResetError, TimeoutError):
                self._lose(pipe)
        reports = self._collect_reports(alive, deadline)
        metrics = self._merge(reports)
        metrics.crashes = crashes
        metrics.failure_detections.extend(fault_log)
        if self._merger is not None:
            self.tracer = self._merger.build()
        self.info = {
            "wall_time": elapsed(),
            "workers": self._n,
            "survivors": sorted(alive),
            "resumed": self._resumed,
            "forced_stop": forced_stop,
            "cost_mode": config.mp_cost_mode,
            "reports": {node: stats for node, (_, stats) in reports.items()},
            "fifo_violations": sum(
                stats["fifo_violations"] for _, stats in reports.values()
            ),
        }
        if self._merger is not None:
            self.info["trace_parts"] = self._merger.part_count
        return metrics

    # ------------------------------------------------------------------

    def _expect(self, node_id: int, kind: str):
        """Block for worker ``node_id``'s next pre-START frame, which must
        be ``kind``; returns its payload."""
        try:
            got, payload = recv_frame(self._pipes[node_id], 60.0)
        except (EOFError, TimeoutError) as exc:
            raise RuntimeError(f"worker {node_id} never sent {kind!r}") from exc
        if got != kind:
            raise RuntimeError(f"expected {kind!r} from worker {node_id}, got {got!r}")
        return payload

    def _absorb_obs(self, kind: str, payload) -> bool:
        """Fold a ``TRACE`` frame; True when it was one."""
        if kind == TRACE:
            self._merger.add(*payload)
            return True
        return False

    def _send(self, node_id: int, kind: str, payload=None) -> None:
        """Queue a control frame for a worker and write what its pipe takes
        now (nothing once the worker's end has closed)."""
        pipe = self._pipes.get(node_id)
        if pipe is not None:
            pipe.put(kind, payload)
            if not pipe.write():
                self._lose(pipe)

    def _lose(self, pipe: PipeEnd) -> None:
        """A worker's end closed (its process died): stop watching it and
        drop what was queued for it — its sources resume elsewhere from
        their watermarks after the fail-over."""
        pipe.close()
        del self._pipes[pipe.peer]

    def _feed(self, mapping: dict, acked: dict, alive: set) -> None:
        """Announce a hand-over: every survivor learns the new placement,
        and the new owner of each moved source replays it from its own
        copy of the trace, past the source's processed watermark."""
        resume = {src_key: watermark for src_key, watermark in acked.items()
                  if OpAddress(*src_key[1:]) in mapping}
        self._resumed.append(resume)
        for i in alive:
            self._send(i, REWIRE, (mapping, resume))

    def _drain_control(self, events: list, exited: set, last_hb: dict,
                       end: EndOfRun, acked: dict, elapsed) -> None:
        """Serve what the selector reported: note exited workers, write
        every writable end, and fold the frames of every readable one."""
        for key, mask in events:
            pipe = key.data
            if type(pipe) is int:  # a worker's process sentinel
                self._selector.unregister(key.fileobj)
                exited.add(pipe)
                continue
            if mask & EVENT_WRITE and not pipe.write():
                self._lose(pipe)
                continue
            if not mask & EVENT_READ:
                continue
            is_open = pipe.fill()
            while (raw := pipe.frame()) is not None:
                kind, payload = pickle.loads(raw)
                if self._absorb_obs(kind, payload):
                    continue
                if kind != HB:
                    continue  # stray frame (late REPORT after forced stop)
                node_id, idle, ingest_acks, admissions, probe = payload
                last_hb[node_id] = elapsed()
                end.report(node_id, idle, admissions, probe)
                for src_key, watermark in ingest_acks.items():
                    acked[src_key] = max(acked[src_key], watermark)
            if not is_open:
                self._lose(pipe)

    def _fail_over(self, dead: int, alive: set) -> dict:
        """Reassign the dead node's operators round-robin to the
        survivors; returns the moves (address -> new node)."""
        survivors = sorted(alive)
        mapping = {}
        for address, node_id in self._op_node.items():
            if node_id == dead:
                mapping[address] = survivors[len(mapping) % len(survivors)]
        self._op_node.update(mapping)
        return mapping

    def _collect_reports(self, alive: set, deadline: float) -> dict:
        """Block for every live worker's REPORT until ``deadline``
        (monotonic), folding the observability frames queued ahead of it."""
        reports: dict[int, tuple] = {}
        for i in sorted(alive):
            pipe = self._pipes.get(i)
            while pipe is not None and (left := deadline - time.monotonic()) > 0:
                try:
                    kind, payload = recv_frame(pipe, left)
                except (EOFError, TimeoutError):
                    break
                if self._absorb_obs(kind, payload):
                    continue
                if kind == REPORT:
                    node_id, hub, stats = payload
                    reports[node_id] = (hub, stats)
                    break
        return reports

    def _merge(self, reports: dict) -> MetricsHub:
        metrics = MetricsHub()
        for job in self._jobs:
            metrics.register_job(job.name, job.group, job.latency_constraint)
        for _, (hub, _stats) in sorted(reports.items()):
            metrics.merge(hub)
        for name in metrics.job_names:
            _sort_outputs(metrics.job(name))
        metrics.timeline.sort(key=lambda entry: entry[0])
        return metrics
