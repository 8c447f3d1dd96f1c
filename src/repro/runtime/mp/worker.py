"""Worker process of the mp backend: one node, executed for real.

Each worker rebuilds the *entire* topology locally (placement is a pure
function of the config, so every process derives the same wiring) but
executes only the operators placed on its node.  The worker *is* that
node's :class:`~repro.runtime.node.NodeRuntime`, run on a wall clock: the
per-message path (back-pressure release, shedding, stats, spans,
completion, RC replies, emission routing) is the inherited code, and the
worker supplies the three things a backend owns — the clock
(:class:`WallClock`), how a sampled cost is spent (:meth:`MpWorker.
_execute`) and the delivery layer (:class:`~repro.runtime.mp.transport.
ProcessTransport`).  Around it runs the pipe loop, one selector over
every pipe end the worker owns.  Each turn pumps the local ingest (its
shard, plus any source a fail-over handed it) unless the admission gate
holds it, runs **one quantum** — the operator held from the last turn,
unless the run queue now names a strictly more urgent one, else the
best operator popped in the scheduler's order — and between quanta
reads what the pipes hold, retransmits expired channels, flushes the
outboxes (one binary ``DATA`` frame per destination — the amortized
batch) and heartbeats the coordinator.  An operator whose quantum ends
with mail left is held (busy, not requeued) across the turn, so a long
mailbox never keeps the loop from its pipes for more than a quantum.
With nothing to run, the loop blocks in the selector until a pipe is
readable (or writable, while bytes wait on it) or the nearest timer is
due: heartbeat, retransmit deadline, next ingest entry, node sample.
While a frame waits on a full peer pipe the loop starts no quantum but
keeps reading and writing, so two workers flooding each other drain
each other.

Admission gate: when the run queue orders by deadline (Cameo under LLF
or EDF), ingest is admitted in that order too.  The driver releases the
due entry with the earliest deadline, and the turn pumps only when the
batch it would admit first is at least as urgent as everything runnable
— the run queue's best key and the held operator's head.  Otherwise the
quantum runs first; runnable work always drains, so the gate reopens.
A pump still admits up to 256 entries.  The other schedulers pump every
turn, in trace order.

End of run: heartbeats carry the worker's idle flag and its
mailbox-admission count.  A worker whose ingest is exhausted heartbeats
as soon as it turns idle, and answers the coordinator's ``PROBE`` at once
with a heartbeat naming the probe (see the coordinator's "Termination").

Execution cost realization (``mp_cost_mode``): ``"sleep"`` occupies the
worker in wall-clock time (sleeps overlap across processes, so capacity
scales with worker count even on few cores); ``"none"`` skips realization
(pure overhead measurement).

Determinism: every worker derives its RNG substreams from the run seed by
name (``mp/exec-cost/<node>``, ``mp/loss/<node>``) through the same
order-independent registry the sim backend uses, so cost samples and loss
decisions are reproducible per node regardless of message interleaving.
"""

from __future__ import annotations

import gc
import pickle
import selectors
import time
from dataclasses import replace
from selectors import EVENT_READ, EVENT_WRITE

from repro.core.policies import make_policy
from repro.core.profiler import CostProfiler, GaussianNoiseInjector
from repro.dataflow.operators import OpAddress
from repro.metrics.collectors import MetricsHub
from repro.runtime.config import HEARTBEAT_INTERVAL
from repro.runtime.delivery import RETRANSMIT_BACKOFF_CAP, RETRANSMIT_TIMEOUT
from repro.runtime.mp.frames import (
    DATA_MAGIC,
    HB,
    PROBE,
    READY,
    REPORT,
    RESCALE,
    REWIRE,
    START,
    STOP,
    TRACE,
    DataCodec,
    PipeEnd,
    recv_frame,
    send_frame,
)
from repro.runtime.lifecycle import apply_stage_rescale
from repro.runtime.mp.ingest import IngestDriver, ingest_slack
from repro.runtime.mp.reliable import MpReliableDelivery
from repro.runtime.mp.transport import ProcessTransport
from repro.runtime.node import NodeRuntime, make_run_queue
from repro.runtime.topology import TopologyBuilder
from repro.runtime.workers import Worker
from repro.sim.faults import FaultInjector
from repro.sim.network import ChannelTable, ConstantDelay
from repro.sim.rng import RngRegistry

def conn_wait(selector, timeout: float) -> list:
    """The one blocking wait of the worker's and the coordinator's loops:
    ``(key, events)`` of every pipe end (or worker sentinel) ready within
    ``timeout`` seconds.  Each module calls it through its own name, so a
    wrapper can time the two loops apart."""
    return selector.select(timeout)


class WallClock:
    """The worker's kernel: seconds since the coordinator's ``START``
    epoch.  ``now`` is all of the kernel the shared message path reads."""

    __slots__ = ("epoch",)

    def __init__(self):
        self.epoch = 0.0

    def read(self) -> float:
        return time.monotonic() - self.epoch

    now = property(read)


class MpWorker(NodeRuntime):
    """One node of the cluster, running in its own process."""

    def __init__(self, node_id: int, config, jobs: list, policy=None,
                 coord_pipe=None, peer_pipes=None, shard=None, trace=None):
        clock = WallClock()
        # each worker process runs its node serially: one dispatch slot
        # (``idle`` = the pipe loop's last look at the run queue found
        # nothing due; the loop looks every turn, so nothing wakes the slot;
        # ``current_op`` = the operator held across a loop turn)
        super().__init__(node_id, make_run_queue(
            replace(config, workers_per_node=1), clock.read))
        self.workers = [Worker(node_id=node_id, local_id=0)]
        self._node_id = node_id  # read by name from outside (perfbench)
        self._coord = coord_pipe
        #: node_id -> PipeEnd of every live peer (shared with the transport)
        self._peers = dict(peer_pipes or {})
        self._stop = False
        #: id of the last end-of-run probe answered (0: none yet)
        self._probe = 0
        #: the last heartbeat said idle (no need to send another at once)
        self._idle_sent = False

        jobs_by_name = {j.name: j for j in jobs}
        rng = RngRegistry(config.seed)
        noise = None
        if config.profile_noise_sigma > 0:
            noise = GaussianNoiseInjector(
                config.profile_noise_sigma,
                rng.stream(f"mp/profile-noise/{node_id}"),
            )
        profiler = CostProfiler(noise=noise)
        policy = policy or make_policy(config.policy, **config.policy_kwargs)

        builder = TopologyBuilder(
            config, jobs_by_name, policy, profiler,
            ChannelTable(), ConstantDelay(local=0.0, remote=0.0),
        )
        # the worker stands in every node slot: whatever node an operator
        # is placed on (or re-placed to by a fail-over this process has not
        # heard of yet), a message admitted here is run by this run queue
        nodes = [self] * config.nodes
        self._plan = builder.build(nodes)
        self._ops = self._plan.ops
        for pipe in self._peers.values():
            # frames from a peer decode to this process's own addresses
            pipe.codec = DataCodec(self._ops)

        metrics = MetricsHub()
        for job in jobs:
            metrics.register_job(job.name, job.group, job.latency_constraint)
        for op_rt in self._ops.values():
            op_rt.job_metrics = metrics.job(op_rt.job.name)

        self._delivery = MpReliableDelivery(
            clock, RETRANSMIT_TIMEOUT, RETRANSMIT_BACKOFF_CAP, metrics,
        )
        # the schedule's loss windows, on this worker's clock (None without
        # loss: the receive path then asks nothing per entry)
        schedule = config.fault_schedule
        faults = None
        if schedule is not None and schedule.losses:
            faults = FaultInjector(schedule, rng.stream(f"mp/loss/{node_id}"),
                                   clock.read)
        self.transport = ProcessTransport(
            node_id, clock, nodes, self._plan, metrics,
            profiler, config, self._delivery, faults,
        )
        self.transport.attach_pipes(self._peers)
        self._sleep_cost = config.mp_cost_mode == "sleep"
        slack = ingest_slack(config, jobs)
        self._ingest = IngestDriver(shard or {}, config.mp_realtime, slack)
        #: ingest admission follows the run queue's deadline order (the
        #: gate in :meth:`_admits_ingest`); the other schedulers keep
        #: trace order and a pump every turn
        self._gated = slack is not None
        #: the whole sequenced trace, read only to adopt a dead node's sources
        self._trace = trace
        #: coordinator-announced stage rescales awaiting a quiescent point
        self._pending_rescales: list[tuple[str, str, int]] = []
        self._stage_rescales = 0
        self._keys_moved = 0

        # observability plane (null-collaborator idiom: with tracing off
        # every field is None and the hot path sees only dead ``is None``
        # branches — obs modules are not even imported)
        tracer = None
        self._tm_interval = None
        self._tm_last_time = 0.0
        self._tm_busy_seen: dict = {}
        if config.record_trace:
            from repro.obs.recorder import MpSpanRecorder

            tracer = MpSpanRecorder(clock)
            self.transport.attach_tracer(tracer)
            self._delivery.attach_tracer(tracer)
            self._tm_interval = config.trace_sample_interval
        self.bind(
            clock, metrics, profiler, rng.stream(f"mp/exec-cost/{node_id}"),
            config, self.transport, reliable=self.transport,
            tracer=tracer,
        )

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self) -> None:
        clock = self.sim
        coord = self._coord
        send_frame(coord, READY, self._node_id)
        kind, payload = recv_frame(coord)
        if kind != START:  # pragma: no cover - protocol guard
            raise RuntimeError(f"expected START, got {kind}")
        clock.epoch = payload
        selector = selectors.DefaultSelector()
        for pipe in (coord, *self._peers.values()):
            pipe.watch(selector)
        self._read(coord)  # frames that arrived right behind START
        last_hb = clock.now
        self._tm_last_time = last_hb
        ingest = self._ingest
        delivery = self._delivery
        transport = self.transport
        tm_interval = self._tm_interval
        while True:
            if self._pending_rescales:
                self._apply_pending_rescales()
            now = clock.now
            delivery.due(now)
            # while a frame waits on a full peer pipe no new work starts,
            # so each peer has at most one frame queued
            worked = False
            if not self._backlogged():
                if self._admits_ingest(now):
                    ingest.pump(now, transport.on_ingest)
                worked = self._dispatch_quantum()
            self._safe_flush()
            if self._stop:
                break
            now = clock.now
            if tm_interval is not None and now - self._tm_last_time >= tm_interval:
                self._sample(now)
            if now - last_hb >= HEARTBEAT_INTERVAL or (
                    not worked and not self._idle_sent and ingest.exhausted
                    and self._idle()):
                self._heartbeat(now)
                last_hb = now
            if worked:
                self._drain(selector.select(0))
                continue
            wake = last_hb + HEARTBEAT_INTERVAL
            deadline = delivery.next_deadline()
            if deadline is not None:
                wake = min(wake, deadline)
            if tm_interval is not None:
                wake = min(wake, self._tm_last_time + tm_interval)
            if not self._backlogged():
                due = ingest.next_due()
                if due is not None:
                    wake = min(wake, due)
            timeout = wake - clock.now
            self._drain(
                conn_wait(selector, timeout) if timeout > 0 else selector.select(0))
        self._report()

    def _drain(self, events) -> None:
        """Serve what the selector reported: write every writable end, and
        read every readable one and handle each whole frame it holds."""
        for key, mask in events:
            pipe = key.data
            if mask & EVENT_WRITE and not pipe.write():
                self._lose(pipe)
            elif mask & EVENT_READ:
                self._read(pipe)

    def _read(self, pipe: PipeEnd) -> None:
        """Take what ``pipe`` holds now and handle each whole frame in it."""
        is_open = pipe.fill()
        transport = self.transport
        while (raw := pipe.frame()) is not None:
            if raw[:1] == DATA_MAGIC:
                transport.on_entries(pipe.codec.decode_data(raw))
                continue
            kind, payload = pickle.loads(raw)
            if kind == REWIRE:
                mapping, resume = payload
                transport.rewire(mapping)
                mine = {src_key: watermark for src_key, watermark in resume.items()
                        if mapping[OpAddress(*src_key[1:])] == self._node_id}
                if mine:
                    self._ingest.adopt(self._trace, mine)
                self._idle_sent = False  # the coordinator awaits fresh reports
            elif kind == PROBE:
                self._probe = payload
                self._heartbeat(self.sim.now)
            elif kind == RESCALE:
                self._pending_rescales.append(payload)
            elif kind == STOP:
                self._stop = True
        if not is_open:
            self._lose(pipe)

    def _lose(self, pipe: PipeEnd) -> None:
        """The process at the other end of ``pipe`` has gone.  Without the
        coordinator the run is over; a dead peer's end is closed with its
        queued bytes — every message in them sits in a go-back-N send
        buffer and replays to the survivor once the coordinator's REWIRE
        lands."""
        if pipe is self._coord:
            self._stop = True
            return
        pipe.close()
        del self._peers[pipe.peer]

    def _backlogged(self) -> bool:
        return any(pipe.unsent for pipe in self._peers.values())

    def _safe_flush(self) -> None:
        """Encode the outboxes and write every peer end holding bytes as far
        as its socket takes them."""
        self.transport.flush()
        for pipe in tuple(self._peers.values()):
            if pipe.unsent and not pipe.write():
                self._lose(pipe)

    def _idle(self) -> bool:
        return (
            self.workers[0].current_op is None
            and self.run_queue.pending_operator_count() == 0
            and self._delivery.idle()
            and not self.transport.pending_output()
            and not self._pending_rescales
            and self._ingest.exhausted
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

    def _sample(self, now: float) -> None:
        """One node-sampler reading of this worker, on the wall clock, into
        its recorder (it leaves with the next ``TRACE`` flush)."""
        from repro.obs.introspect import sample

        self._tracer.add_sample(sample(
            self, now, now - self._tm_last_time, self._ops.values(),
            self._tm_busy_seen, self._ingest.remaining,
        ))
        self._tm_last_time = now

    def _flush_obs(self) -> None:
        """Queue the span parts and samples since the last flush for the
        coordinator."""
        parts, samples, inversions = self._tracer.drain()
        if parts or samples:
            self._coord.put(TRACE, (self._node_id, parts, samples, inversions))

    def _heartbeat(self, now: float) -> None:
        if self._tracer is not None:
            self._flush_obs()
        coord = self._coord
        idle = self._idle_sent = self._idle()
        coord.put(HB, (
            self._node_id, idle, self.transport.ingest_acks(),
            self.transport.admissions, self._probe,
        ))
        if not coord.write():
            self._lose(coord)

    def _report(self) -> None:
        if self._tracer is not None:
            # one last reading so short runs still produce a series, then
            # the final drain, queued ahead of REPORT
            self._sample(self.sim.now)
            self._flush_obs()
        slot = self.workers[0]
        self.metrics.record_worker_busy(self._node_id, 0, slot.busy_time)
        for job, late in self._plan.late_tuples().items():
            self.metrics.job(job).late_tuples = late
        stats = {
            "busy_time": slot.busy_time,
            "messages": slot.messages_executed,
            "fifo_violations": self.transport.fifo_violations,
            "stage_rescales": self._stage_rescales,
            "keys_moved": self._keys_moved,
            "backoff_by_channel": self._delivery.backoff_by_channel(),
        }
        try:
            send_frame(self._coord, REPORT, (self._node_id, self.metrics, stats))
        except (BrokenPipeError, ConnectionResetError):
            pass  # the coordinator is gone

    # ------------------------------------------------------------------
    # dispatch: NodeRuntime's message path, one quantum per pipe-loop turn
    # ------------------------------------------------------------------

    def _dispatch_quantum(self) -> bool:
        """Run one quantum and hand control back to the pipe loop.

        The operator held from the last turn runs on unless the run queue
        now names a strictly more urgent one (``should_swap``: the sim's
        swap rule, informed by what the turn read in between), in which
        case it is requeued and the best is popped.  The operator ends its
        quantum drained, swapped out, or held again with mail left
        (:meth:`_quantum_expired`).  Returns True when an operator ran."""
        slot = self.workers[0]
        op_rt = slot.current_op
        slot.current_op = None
        if op_rt is not None and self.run_queue.should_swap(op_rt):
            self._release(op_rt, slot, requeue=True)
            op_rt = None
        if op_rt is None:
            op_rt = self.run_queue.pop(0)
            slot.idle = op_rt is None
            if op_rt is None:
                return False
            op_rt.busy = True
        slot.quantum_start = self.sim.now
        self._run_op(slot, op_rt)
        return True

    def _admits_ingest(self, now: float) -> bool:
        """The admission gate: pump unless something runnable — the best
        queued operator, or the held one while it has mail — is strictly
        more urgent than the batch the pump would admit first.  Runnable
        work always drains, so a closed gate opens again.  Always open
        when the run queue does not order by deadline."""
        if not self._gated:
            return True
        best = self.run_queue.peek_best_priority()
        held = self.workers[0].current_op
        if held is not None and len(held.mailbox) > 0:
            head = held.mailbox.head_global_priority()
            if best is None or head < best:
                best = head
        if best is None:
            return True  # nothing runnable
        src_key = self._ingest.peek(now)
        if src_key is None:
            return False  # nothing due
        admitted = self.transport.admission_priority(src_key, now)
        return admitted is None or best >= admitted

    def _quantum_expired(self, worker, op_rt) -> bool:
        """Hold ``op_rt`` (still busy, not requeued) and end the turn: the
        pipe loop flushes, reads, pumps, retransmits and heartbeats before
        the next :meth:`_dispatch_quantum` decides whether it runs on."""
        worker.current_op = op_rt
        return True

    def _execute(self, worker, op_rt, msg, now: float, cost: float) -> bool:
        """Spend exactly the sampled ``cost`` in wall time (sleep, unless
        costs are not realised); the message always completes inline."""
        if cost > 0 and self._sleep_cost:
            time.sleep(cost)
        return True

    def wake_idle_worker(self) -> None:
        """Nothing to wake: the pipe loop checks the run queue every turn."""


def worker_main(node_id: int, config, jobs: list, policy,
                coord_sock, peer_socks: dict, shard=None, trace=None,
                unused_socks: list | None = None) -> None:
    """Process entry point (fork start method: objects are inherited).

    ``coord_sock`` and ``peer_socks`` (node_id -> socket) are this
    worker's ends of the mesh; ``shard`` holds the sequenced trace
    entries of the sources placed here and ``trace`` all of them (read
    only when a fail-over hands this node a dead node's sources).
    ``unused_socks`` are the ends it inherited through fork but does not
    own (other workers' coordinator and mesh ends).  Closing them first
    is load-bearing for fail-over: as long as *any* process keeps a
    duplicate of a dead peer's end open, that end never reads as closed
    and writes to it never raise ``BrokenPipeError`` — they fill the
    socket buffer and then hold the sender's dispatch forever, instead of
    surfacing the failure."""
    for sock in unused_socks or ():
        sock.close()
    peers = {peer: PipeEnd(sock, peer) for peer, sock in peer_socks.items()}
    worker = MpWorker(node_id, config, jobs, policy=policy,
                      coord_pipe=PipeEnd(coord_sock), peer_pipes=peers,
                      shard=shard, trace=trace)
    # the topology and the inherited trace live as long as the process:
    # left to the cyclic GC, each full collection walks them inside the
    # loop (30-60 ms on the flood benchmark, past the peer's retransmit
    # timeout), and its writes to their headers copy the forked pages
    gc.freeze()
    worker.run()
