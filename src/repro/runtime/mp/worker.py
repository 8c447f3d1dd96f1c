"""Worker process of the mp backend: one node, executed for real.

Each worker rebuilds the *entire* topology locally (placement is a pure
function of the config, so every process derives the same wiring) but
executes only the operators placed on its node.  The dispatch loop is the
wall-clock analogue of :class:`~repro.runtime.node.NodeRuntime`: pump the
local ingest shard, pop an operator from the run
queue in the scheduler's order, run its messages for a quantum, requeue,
and between quanta drain the pipes, retransmit expired channels, flush
the outboxes (one binary ``DATA`` frame per destination — the amortized
batch) and heartbeat the coordinator.  Every idle wait is capped by
``MP_POLL_INTERVAL``.

Execution cost realization (``mp_cost_mode``): ``"sleep"`` occupies the
worker in wall-clock time (sleeps overlap across processes, so capacity
scales with worker count even on few cores); ``"spin"`` burns the cost as
CPU work — a *fixed iteration count* of ``cost * spin_rate``, where
``spin_rate`` (iterations/second) is measured once at startup by
:func:`calibrate_spin_rate` while the coordinator holds **all** workers
in the calibration barrier, so the rate reflects deployment-level CPU
contention; ``"none"`` skips realization (pure overhead measurement).

Determinism: every worker derives its RNG substreams from the run seed by
name (``mp/exec-cost/<node>``, ``mp/loss/<node>``) through the same
order-independent registry the sim backend uses, so cost samples and loss
decisions are reproducible per node regardless of message interleaving.
Spin calibration measures the host, not the seed — the *work amount* per
message stays seed-stable, only its wall-clock duration is host-relative.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import replace
from multiprocessing.connection import wait as conn_wait

from repro.core.policies import make_policy
from repro.core.profiler import CostProfiler, GaussianNoiseInjector
from repro.core.shedding import DeadlineShedder
from repro.metrics.collectors import MetricsHub
from repro.runtime.config import HEARTBEAT_INTERVAL, MP_POLL_INTERVAL
from repro.runtime.delivery import RETRANSMIT_BACKOFF_CAP, RETRANSMIT_TIMEOUT
from repro.runtime.mp.frames import (
    CAL_DONE,
    CALIBRATE,
    CLOCK,
    CLOCK_ACK,
    DATA,
    DATA_MAGIC,
    HB,
    INGEST,
    READY,
    REPORT,
    RESCALE,
    REWIRE,
    START,
    STOP,
    TELEMETRY,
    TRACE,
    DataCodec,
    recv_frame,
    send_frame,
)
from repro.runtime.lifecycle import apply_stage_rescale
from repro.runtime.mp.ingest import IngestDriver
from repro.runtime.mp.reliable import MpReliableDelivery
from repro.runtime.mp.transport import ProcessTransport
from repro.runtime.node import make_run_queue
from repro.runtime.topology import TopologyBuilder
from repro.sim.network import ChannelTable, ConstantDelay
from repro.sim.rng import RngRegistry

#: calibration spins in chunks of this many iterations between clock reads
_CAL_CHUNK = 50_000


def spin(iterations: int) -> int:
    """Burn ``iterations`` of pure-Python CPU work (the spin kernel).

    Deliberately allocation-free and branch-light so its per-iteration
    cost is stable between the calibration loop and the hot path."""
    acc = 0
    while iterations > 0:
        acc += iterations & 7
        iterations -= 1
    return acc


def calibrate_spin_rate(measure: float = 0.6) -> float:
    """Measure this process's spin throughput in iterations/second.

    The rate is whatever the host grants *right now* — the coordinator
    barriers every worker into calibrating concurrently, so on an
    oversubscribed host each worker measures its contended share and the
    fixed per-message iteration counts stay proportional to the sampled
    costs under deployment-level contention; on a host with a core per
    worker, calibration is uncontended and spin is honestly CPU-bound."""
    spin(_CAL_CHUNK)  # warm the loop before timing
    start = time.monotonic()
    iterations = 0
    while True:
        spin(_CAL_CHUNK)
        iterations += _CAL_CHUNK
        elapsed = time.monotonic() - start
        if elapsed >= measure:
            return iterations / elapsed


class _BuilderNode:
    """Placement slot handed to the topology builder (mailbox factory)."""

    __slots__ = ("node_id", "run_queue")

    def __init__(self, node_id: int, run_queue):
        self.node_id = node_id
        self.run_queue = run_queue


class MpWorker:
    """One node of the cluster, running in its own process."""

    def __init__(self, node_id: int, config, jobs: list, policy=None,
                 coord_conn=None, peer_conns=None, shard=None):
        self._node_id = node_id
        self._coord = coord_conn
        self._peers = dict(peer_conns or {})
        self._epoch = 0.0
        self._stop = False
        self._busy_time = 0.0
        self._messages = 0

        jobs_by_name = {j.name: j for j in jobs}
        self._jobs = jobs_by_name
        rng = RngRegistry(config.seed)
        self._cost_rng = rng.stream(f"mp/exec-cost/{node_id}")
        noise = None
        if config.profile_noise_sigma > 0:
            noise = GaussianNoiseInjector(
                config.profile_noise_sigma,
                rng.stream(f"mp/profile-noise/{node_id}"),
            )
        self._profiler = CostProfiler(noise=noise)
        self._policy = policy or make_policy(config.policy, **config.policy_kwargs)

        # each worker process runs its node serially: one dispatch slot
        queue_config = replace(config, workers_per_node=1)
        builder_nodes = [
            _BuilderNode(i, make_run_queue(queue_config, self._now))
            for i in range(config.nodes)
        ]
        self._run_queue = builder_nodes[node_id].run_queue
        builder = TopologyBuilder(
            config, jobs_by_name, self._policy, self._profiler,
            ChannelTable(), ConstantDelay(local=0.0, remote=0.0), True,
        )
        self._plan = builder.build(builder_nodes)
        self._ops = self._plan.ops

        self.metrics = MetricsHub()
        for job in jobs:
            self.metrics.register_job(job.name, job.group, job.latency_constraint)
        for op_rt in self._ops.values():
            op_rt.job_metrics = self.metrics.job(op_rt.job.name)

        loss_rng = rng.stream(f"mp/loss/{node_id}") if config.mp_loss_rate > 0 else None
        self._reliable = MpReliableDelivery(
            self._now, RETRANSMIT_TIMEOUT, RETRANSMIT_BACKOFF_CAP,
            self.metrics, loss_rate=config.mp_loss_rate, loss_rng=loss_rng,
        )
        self.transport = ProcessTransport(
            node_id, self._plan, jobs_by_name, config, self.metrics,
            self._profiler, self._reliable, self._run_queue, self._now,
        )
        self._codecs = {peer: DataCodec() for peer in self._peers}
        self._codec_by_conn = {
            conn: self._codecs[peer] for peer, conn in self._peers.items()
        }
        self.transport.attach_conns(self._peers, self._codecs)
        self._cost_mode = config.mp_cost_mode
        self._sleep_cost = self._cost_mode == "sleep"
        self.spin_rate = 0.0
        self._shedder = DeadlineShedder() if config.shed_expired else None
        self._ingest = (
            None if shard is None else IngestDriver(shard, config.mp_realtime)
        )
        self._contexts = config.contexts_enabled
        self._quantum = config.quantum
        self._capacity = config.source_mailbox_capacity
        self._record_completions = config.record_completion_timeline
        #: coordinator-announced stage rescales awaiting a quiescent point
        self._pending_rescales: list[tuple[str, str, int]] = []
        self._stage_rescales = 0
        self._keys_moved = 0

        # observability plane (null-collaborator idiom: with tracing and
        # telemetry off every field is None and the hot path sees only
        # dead ``is None`` branches — obs modules are not even imported)
        self._tracer = None
        self._telemetry = None
        self._tm_interval = None
        self._tm_last_time = 0.0
        self._tm_last_busy = 0.0
        if config.record_trace:
            from repro.obs.recorder import MpSpanRecorder

            self._tracer = MpSpanRecorder()
            self.transport.attach_tracer(self._tracer)
            self._reliable.attach_tracer(self._tracer)
        if config.mp_telemetry_enabled:
            self._telemetry = []
            self._tm_interval = config.mp_telemetry_interval

    def _now(self) -> float:
        return time.monotonic() - self._epoch

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self) -> None:
        send_frame(self._coord, READY, self._node_id)
        while True:
            kind, payload = recv_frame(self._coord)
            if kind == CALIBRATE:
                # every worker calibrates inside this barrier concurrently
                self.spin_rate = calibrate_spin_rate()
                send_frame(self._coord, CAL_DONE, (self._node_id, self.spin_rate))
            elif kind == CLOCK:
                # NTP-style clock probe (obs plane only): answer with the
                # raw monotonic reading *immediately* — the coordinator
                # brackets the round trip and keeps the min-RTT round
                send_frame(self._coord, CLOCK_ACK,
                           (self._node_id, os.getpid(), time.monotonic()))
            elif kind == START:
                self._epoch = payload
                break
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"expected CALIBRATE/CLOCK/START, got {kind}")
        last_hb = self._now()
        self._tm_last_time = last_hb
        ingest = self._ingest
        conns = [self._coord] + list(self._peers.values())
        while True:
            self._drain(conns)
            if self._pending_rescales:
                self._apply_pending_rescales()
            now = self._now()
            if ingest is not None:
                ingest.pump(now, self.transport.on_ingest)
            replays = self._reliable.due_retransmits(now)
            if replays:
                self.transport.enqueue_retransmits(replays)
            worked = self._dispatch_quantum()
            self._safe_flush()
            now = self._now()
            if self._stop:
                break
            if (
                self._tm_interval is not None
                and now - self._tm_last_time >= self._tm_interval
            ):
                self._sample_telemetry(now)
            if now - last_hb >= HEARTBEAT_INTERVAL:
                self._heartbeat(now)
                last_hb = now
            if not worked:
                timeout = last_hb + HEARTBEAT_INTERVAL - now
                deadline = self._reliable.next_deadline()
                if deadline is not None:
                    timeout = min(timeout, deadline - now)
                if ingest is not None:
                    due = ingest.next_due()
                    if due is not None:
                        timeout = min(timeout, due - now)
                if timeout > 0:
                    conn_wait(conns, timeout=min(timeout, MP_POLL_INTERVAL))
        self._report()

    def _drain(self, conns, limit: int = 256) -> None:
        """Handle up to ``limit`` frames across all connections."""
        handled = 0
        progress = True
        while progress and handled < limit:
            progress = False
            for conn in conns:
                try:
                    if not conn.poll():
                        continue
                    raw = conn.recv_bytes()
                except (EOFError, OSError):
                    continue
                progress = True
                handled += 1
                if raw[:1] == DATA_MAGIC:
                    self.transport.on_entries(
                        self._codec_by_conn[conn].decode_data(raw)
                    )
                    continue
                kind, payload = pickle.loads(raw)
                if kind == DATA:
                    self.transport.on_entries(payload)
                elif kind == INGEST:
                    self.transport.on_ingest(payload)
                elif kind == REWIRE:
                    self.transport.rewire(payload[0])
                elif kind == RESCALE:
                    self._pending_rescales.append(payload)
                elif kind == STOP:
                    self._stop = True

    def _safe_flush(self) -> None:
        try:
            self.transport.flush()
        except (BrokenPipeError, OSError):
            # a peer died mid-send; its channels replay after fail-over
            pass

    def _idle(self) -> bool:
        return (
            self._run_queue.pending_operator_count() == 0
            and self._reliable.idle()
            and not self.transport.pending_output()
            and not self._pending_rescales
            and (self._ingest is None or self._ingest.exhausted)
        )

    def _apply_pending_rescales(self) -> None:
        """Apply announced rescales once the target stage is quiescent.

        The flip is exact only when no batch keyed under the old partition
        is still waiting in a stage instance's mailbox, so each rescale
        defers until every instance of its stage is drained and idle (the
        worker is single-threaded, so between quanta nothing is mid-
        absorb).  Order among distinct pending rescales is preserved."""
        remaining: list[tuple[str, str, int]] = []
        blocked: set[tuple[str, str]] = set()
        for job_name, stage_name, parallelism in self._pending_rescales:
            key = (job_name, stage_name)
            instances = [
                op_rt for address, op_rt in self._ops.items()
                if address.job == job_name and address.stage == stage_name
            ]
            if key in blocked or any(
                op_rt.busy or len(op_rt.mailbox) > 0 for op_rt in instances
            ):
                remaining.append((job_name, stage_name, parallelism))
                blocked.add(key)
                continue
            self._keys_moved += apply_stage_rescale(
                self._ops, job_name, stage_name, parallelism
            )
            self._stage_rescales += 1
        self._pending_rescales = remaining

    def _sample_telemetry(self, now: float) -> None:
        """One telemetry-bus reading (buffered; flushed with heartbeats)."""
        from repro.obs.telemetry import TelemetrySample

        elapsed = now - self._tm_last_time
        busy_delta = self._busy_time - self._tm_last_busy
        self._tm_last_time = now
        self._tm_last_busy = self._busy_time
        busy_frac = 0.0
        if elapsed > 0:
            # busy time books in lumps at completion, so clamp (same as
            # the sim sampler's utilization clamp)
            busy_frac = min(1.0, max(0.0, busy_delta / elapsed))
        run_queue = self._run_queue
        peek = getattr(run_queue, "peek_best_priority", None)
        head = float("nan")
        if peek is not None:
            best = peek()
            if best is not None:
                head = best
        state_bytes = 0
        pending_windows = 0
        node_id = self._node_id
        for op_rt in self._ops.values():
            if op_rt.node_id != node_id:
                continue
            store = op_rt.operator.state_store
            if store is not None:
                state_bytes += store.approx_size()
                pending_windows += store.pending_window_count
        ingest = self._ingest
        self._telemetry.append(TelemetrySample(
            now, node_id, run_queue.pending_operator_count(), head,
            busy_frac, self._reliable.outstanding_total(),
            0 if ingest is None else ingest.remaining,
            state_bytes, pending_windows, self._messages,
        ))

    def _flush_obs(self) -> None:
        """Ship dirty span parts and buffered telemetry to the coordinator."""
        tracer = self._tracer
        if tracer is not None:
            parts = tracer.drain_parts()
            if parts:
                try:
                    send_frame(self._coord, TRACE, (self._node_id, parts))
                except (BrokenPipeError, OSError):
                    pass
        if self._telemetry:
            from repro.obs.telemetry import pack_samples

            try:
                send_frame(self._coord, TELEMETRY,
                           (self._node_id, pack_samples(self._telemetry)))
            except (BrokenPipeError, OSError):
                pass
            self._telemetry.clear()

    def _heartbeat(self, now: float) -> None:
        if self._tracer is not None or self._telemetry:
            self._flush_obs()
        try:
            send_frame(self._coord, HB, (
                self._node_id, self._idle(),
                self.transport.ingest_acks(), self._messages,
            ))
        except (BrokenPipeError, OSError):
            self._stop = True  # the coordinator is gone: report and exit

    def _report(self) -> None:
        if self._tm_interval is not None:
            # one last reading so short runs still produce a series
            self._sample_telemetry(self._now())
        if self._tracer is not None or self._telemetry:
            self._flush_obs()  # final drain: REPORT must come last
        self.metrics.record_worker_busy(self._node_id, 0, self._busy_time)
        for job, late in self._plan.late_tuples().items():
            self.metrics.job(job).late_tuples = late
        stats = {
            "busy_time": self._busy_time,
            "messages": self._messages,
            "spin_rate": self.spin_rate,
            "fifo_violations": self.transport.fifo_violations,
            "stage_rescales": self._stage_rescales,
            "keys_moved": self._keys_moved,
        }
        try:
            send_frame(self._coord, REPORT, (self._node_id, self.metrics, stats))
        except (BrokenPipeError, OSError):
            pass

    # ------------------------------------------------------------------
    # dispatch (wall-clock analogue of NodeRuntime._run_op)
    # ------------------------------------------------------------------

    def _dispatch_quantum(self) -> bool:
        """Pop one operator and run its messages for a quantum.

        Returns True when any message was executed."""
        op_rt = self._run_queue.pop(0)
        if op_rt is None:
            return False
        op_rt.busy = True
        start = self._now()
        mailbox = op_rt.mailbox
        shedder = self._shedder
        worked = False
        while True:
            msg = mailbox.pop()
            if op_rt.blocked:
                capacity = self._capacity
                if capacity is not None and len(mailbox) < capacity:
                    released = op_rt.blocked.popleft()
                    release_now = self._now()
                    released.enqueue_time = release_now
                    mailbox.push(released)
                    if self._tracer is not None:
                        # back-pressure release is this message's admission
                        self._tracer.on_admit(released, release_now)
            if shedder is not None:
                pc = msg.pc
                if pc is not None and shedder.should_shed(pc, self._now()):
                    # deadline-aware load shedding, mirrored from the sim
                    # dispatch loop: the start deadline is unmeetable, so
                    # executing would only delay messages that can still
                    # make it; shed work still acks (at-least-once intact)
                    job_metrics = op_rt.job_metrics
                    job_metrics.messages_shed += 1
                    job_metrics.tuples_shed += msg.tuple_count
                    if self._tracer is not None:
                        self._tracer.on_shed(msg, op_rt, self._now())
                    if op_rt.is_source:
                        self.transport.note_source_processed(op_rt, msg)
                    elif msg.seq != -1:
                        self._reliable.on_processed(msg)
                    worked = True
                    if len(mailbox) == 0:
                        op_rt.busy = False
                        return worked
                    continue
            self._execute(op_rt, msg)
            worked = True
            if len(mailbox) == 0:
                op_rt.busy = False
                return worked
            now = self._now()
            if now - start >= self._quantum:
                if self._run_queue.should_swap(op_rt):
                    op_rt.busy = False
                    self._run_queue.requeue(op_rt, 0)
                    return worked
                start = now  # fresh quantum, same operator (sim parity)

    def _execute(self, op_rt, msg) -> None:
        now = self._now()
        tracer = self._tracer
        job_metrics = op_rt.job_metrics
        stage_name = op_rt.stage_name
        enqueue_time = msg.enqueue_time
        wait = now - enqueue_time
        if wait == wait:  # NaN propagates from unset enqueue
            queue_stat = op_rt.queue_stat
            if queue_stat is None:
                queue_stat = job_metrics.queueing_stat(stage_name)
                op_rt.queue_stat = queue_stat
            queue_stat.add(wait)
        pc = msg.pc
        if pc is not None and now > pc.deadline:
            job_metrics.start_violations += 1
        cost = op_rt.cost_model.sample(msg.tuple_count, self._cost_rng)
        exec_stat = op_rt.exec_stat
        if exec_stat is None:
            exec_stat = job_metrics.execution_stat(stage_name)
            op_rt.exec_stat = exec_stat
        exec_stat.add(cost)
        if tracer is not None:
            started = now
            tracer.on_start(msg, op_rt, 0, now, wait, cost, self._run_queue)
        if cost > 0:
            if self._sleep_cost:
                time.sleep(cost)
            elif self.spin_rate > 0.0:  # "spin" after calibration
                spin(int(cost * self.spin_rate))
        self._busy_time += cost
        now = self._now()
        self._messages += 1
        job_metrics.messages_processed += 1
        self.metrics.total_messages += 1
        emissions = op_rt.operator.on_message(msg, now)
        if tracer is not None:
            # mp spans carry *realized* wall time (cost realization plus
            # the operator's actual work), not the sampled cost the stats
            # book — children are sent after ``finished``, so chains stay
            # causal; see docs/observability.md "mp semantics"
            end = self._now()
            tracer.on_execute_end(msg, end, end - started)
        batch = msg.batch
        if op_rt.is_sink and batch is not None and len(batch) > 0:
            job_metrics.record_output(
                now, now - msg.t, msg.tuple_count, float(batch.values.sum())
            )
            if tracer is not None:
                tracer.on_output(msg, now, now - msg.t)
        elif op_rt.is_source:
            count = msg.tuple_count
            job_metrics.tuples_processed += count
            job_metrics.source_events.append((now, count))
        if self._contexts:
            self._profiler.record(op_rt.address, cost)
            self.transport.send_reply(op_rt, msg)
        if self._record_completions:
            self.metrics.completion_log.append(
                (now, op_rt.job.name, stage_name, op_rt.address.index, msg.msg_id)
            )
        if op_rt.is_source:
            self.transport.note_source_processed(op_rt, msg)
        elif msg.seq != -1:
            self._reliable.on_processed(msg)
        if emissions:
            self.transport.route_emissions(op_rt, msg, emissions)


def worker_main(node_id: int, config, jobs: list, policy,
                coord_conn, peer_conns: dict, shard=None,
                unused_conns: list | None = None) -> None:
    """Process entry point (fork start method: objects are inherited).

    ``unused_conns`` are the pipe ends this worker inherited through fork
    but does not own (other workers' coordinator and mesh ends).  Closing
    them first is load-bearing for fail-over: as long as *any* process
    keeps a duplicate of a dead peer's receiving end open, writes to that
    peer never raise ``BrokenPipeError`` — they silently fill the socket
    buffer and then block the sender forever, deadlocking the cluster
    instead of surfacing the failure."""
    for conn in unused_conns or ():
        conn.close()
    # forked processes inherit the parent's message-id counter position;
    # stride into a per-node block so cross-process identity is unambiguous
    from repro.dataflow.messages import stride_message_ids
    stride_message_ids(node_id)
    worker = MpWorker(node_id, config, jobs, policy=policy,
                      coord_conn=coord_conn, peer_conns=peer_conns,
                      shard=shard)
    worker.run()
