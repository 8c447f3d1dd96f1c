"""Node runtime: one node's worker pool, run queue and dispatch loop.

Each :class:`NodeRuntime` owns exactly the state one cluster node owns in
the paper's runtime (§5.2 / Fig. 5b): a run queue of operators with
pending work, a pool of workers (vCPU threads), and the dispatch loop
that pops operators in the scheduler's order, runs messages for a
quantum, performs the preemption check, and requeues.  Nodes share no
mutable scheduling state with each other — cross-node interaction goes
through the :class:`~repro.runtime.transport.Transport` (message
delivery) and the simulation clock only.

The dispatch loop keeps PR 2's quantum-batched fast path: while the
kernel can prove no other pending event fires before a message's
completion instant, time is advanced inline and the completion handler
runs without a heap round-trip.
"""

from __future__ import annotations

from typing import Optional

from repro.core.scheduler import CameoRunQueue, RunQueue
from repro.dataflow.messages import Message
from repro.runtime.baselines import FifoRunQueue, OrleansRunQueue
from repro.runtime.topology import OperatorRuntime
from repro.runtime.workers import Worker


def make_run_queue(config, clock) -> RunQueue:
    """Run-queue factory: the scheduler choice is the only knob."""
    if config.scheduler == "cameo":
        return CameoRunQueue(clock=clock, aging=config.starvation_aging)
    if config.scheduler == "fifo":
        return FifoRunQueue()
    return OrleansRunQueue(config.workers_per_node)


class NodeRuntime:
    """One cluster node: run queue, worker pool, and the dispatch loop.

    Construction happens in two phases: the node is created first (the
    topology builder needs its run queue to create mailboxes), then
    :meth:`bind` attaches the transport and per-run caches once the
    engine's collaborators exist.  ``lifecycle`` is attached last via
    :meth:`attach_lifecycle`; the dispatch loop only consults it when an
    operator with a pending migration is released.

    A backend overrides two steps of the loop: :meth:`_execute` (how a
    message's cost is spent) and :meth:`_quantum_expired` (what a quantum
    boundary does with an operator that still has mail — here it runs on
    unless a strictly more urgent operator waits; the mp worker holds it
    and returns to its pipe loop first).
    """

    __slots__ = (
        "node_id",
        "run_queue",
        "workers",
        "sim",
        "metrics",
        "down",
        "fenced",
        "_transport",
        "_lifecycle",
        "_profiler",
        "_quantum",
        "_switch_cost",
        "_capacity",
        "_record_timeline",
        "_reliable",
        "_shed",
        "_tracer",
    )

    def __init__(self, node_id: int, run_queue: RunQueue):
        self.node_id = node_id
        self.run_queue = run_queue
        self.workers: list[Worker] = []
        self.sim = None
        self.metrics = None
        self.down = False  # fail-stop flag, driven by the RecoveryManager
        # quorum-loss fencing (partition-aware detector): alive but not
        # executing — arrivals are admitted, dispatch is suspended
        self.fenced = False
        self._transport = None
        self._lifecycle = None

    def bind(self, sim, metrics, profiler, config, transport,
             reliable=None, tracer=None) -> None:
        """Attach execution-time collaborators and hot-path config caches.

        ``reliable`` / ``tracer`` stay None on fault-free runs with
        tracing off, keeping the dispatch loop's extra branches dead."""
        self.sim = sim
        self.metrics = metrics
        self._profiler = profiler
        self._transport = transport
        self._quantum = config.quantum
        self._switch_cost = config.switch_cost
        self._capacity = config.source_mailbox_capacity
        self._record_timeline = config.record_timeline
        self._reliable = reliable
        self._shed = config.shed_expired
        self._tracer = tracer

    def attach_lifecycle(self, lifecycle) -> None:
        self._lifecycle = lifecycle

    # ------------------------------------------------------------------
    # worker pool
    # ------------------------------------------------------------------

    def idle_worker(self) -> Optional[Worker]:
        """An idle, non-retired worker with no wake already scheduled."""
        for worker in self.workers:
            if worker.idle and not worker.wake_scheduled and not worker.retired:
                return worker
        return None

    @property
    def active_worker_count(self) -> int:
        return sum(1 for w in self.workers if not w.retired)

    def add_worker(self) -> Worker:
        """Grow this node's worker pool at the current simulation time."""
        worker = Worker(node_id=self.node_id, local_id=len(self.workers),
                        created_at=self.sim.now)
        self.workers.append(worker)
        if isinstance(self.run_queue, OrleansRunQueue):
            self.run_queue.add_worker_slot()
        self.wake_idle_worker()  # pick up any pending work immediately
        return worker

    def retire_worker(self) -> Optional[Worker]:
        """Shrink the pool: the last active worker finishes its current
        message and then stops.  Returns the retired worker, or None if the
        node is down to one active worker (never retire the last)."""
        active = [w for w in self.workers if not w.retired]
        if len(active) <= 1:
            return None
        worker = active[-1]
        worker.retired = True
        worker.retired_at = self.sim.now
        return worker

    # ------------------------------------------------------------------
    # dispatch loop
    # ------------------------------------------------------------------

    def wake_idle_worker(self) -> None:
        if self.down or self.fenced:
            return  # a crashed or quorum-fenced node schedules no work
        worker = self.idle_worker()
        if worker is not None:
            worker.wake_scheduled = True
            self.sim.schedule_fast(0.0, self._worker_wake, worker)

    def _worker_wake(self, worker: Worker) -> None:
        worker.wake_scheduled = False
        if worker.idle and not self.down and not self.fenced:
            worker.idle = False
            self._worker_next(worker)

    def _worker_next(self, worker: Worker) -> None:
        sim = self.sim
        run_queue = self.run_queue
        switch_cost = self._switch_cost
        while True:
            if worker.retired:
                worker.idle = True
                worker.current_op = None
                return
            op_rt = run_queue.pop(worker.local_id)
            if op_rt is None:
                worker.idle = True
                worker.current_op = None
                return
            op_rt.busy = True
            worker.current_op = op_rt
            worker.quantum_start = sim.now
            if switch_cost > 0 and worker.last_op is not op_rt:
                # activation switch penalty (cache refill / scheduling work)
                worker.switches += 1
                worker.busy_time += switch_cost
                worker.last_op = op_rt
                sim.schedule_fast(switch_cost, self._start_message, worker, op_rt)
                return
            worker.last_op = op_rt
            if not self._run_op(worker, op_rt):
                return
            # the operator was released inline (mailbox drained or requeued
            # at the quantum boundary): pop the next one without an event

    def _start_message(self, worker: Worker, op_rt: OperatorRuntime) -> None:
        """Entry point after a switch-cost delay: run the popped operator."""
        if worker.current_op is not op_rt:
            return  # the node crashed during the switch; the quantum died
        if self._run_op(worker, op_rt):
            self._worker_next(worker)

    def _release(self, op_rt: OperatorRuntime, worker: Worker,
                 requeue: bool) -> None:
        """Release a running operator; completes a deferred migration."""
        op_rt.busy = False
        if op_rt.pending_migration is not None:
            self._lifecycle.finish_migration(op_rt)
        elif requeue:
            self.run_queue.requeue(op_rt, worker.local_id)

    def _run_op(self, worker: Worker, op_rt: OperatorRuntime) -> bool:
        """Run consecutive messages of ``op_rt`` on ``worker``.

        Quantum-batched execution: while the kernel can prove that no other
        pending event fires before a message's completion instant
        (:meth:`~repro.sim.kernel.Simulator.try_advance`), time is advanced
        inline and the completion handler runs without a heap round-trip —
        one kernel event per quantum instead of one per message.  Whenever
        the proof fails, the completion is scheduled exactly as before, so
        the observable event order is identical either way.  That choice is
        :meth:`_execute`; everything else here runs on any clock.

        Returns True when the worker let go of the operator (mailbox
        drained, or :meth:`_quantum_expired` released or held it at a
        quantum boundary) and should pop its next one; False when a
        completion event was scheduled and control must return to the
        kernel.
        """
        sim = self.sim
        mailbox = op_rt.mailbox
        job_metrics = op_rt.job_metrics
        stage_name = op_rt.stage_name
        cost_model = op_rt.cost_model
        quantum = self._quantum
        while True:
            now = sim.now
            msg = mailbox.pop()
            if op_rt.blocked:
                capacity = self._capacity
                if capacity is not None and len(mailbox) < capacity:
                    released = op_rt.blocked.popleft()
                    released.enqueue_time = now
                    mailbox.push(released)
                    if self._tracer is not None:
                        self._tracer.on_admit(released, now)
            pc = msg.pc
            late = pc is not None and now > pc.deadline
            if late and self._shed:
                # deadline-aware load shedding: the start deadline is
                # already unmeetable, so executing would only delay
                # messages that can still make it.  A +inf deadline (no
                # constraint) never compares as passed.
                job_metrics.messages_shed += 1
                job_metrics.tuples_shed += msg.tuple_count
                if self._tracer is not None:
                    self._tracer.on_shed(msg, op_rt, now)
                if self._reliable is not None:
                    self._reliable.on_processed(op_rt, msg)
                if len(mailbox) == 0:
                    self._release(op_rt, worker, requeue=False)
                    return True
                continue
            # the wait is measured exactly once and feeds both the per-stage
            # RunningStat and (when tracing) the span recorder — the single
            # source of truth that keeps stats and traces in exact agreement
            enqueue_time = msg.enqueue_time
            wait = now - enqueue_time  # NaN propagates from unset enqueue
            if wait == wait:
                queue_stat = op_rt.queue_stat
                if queue_stat is None:
                    queue_stat = job_metrics.queueing_stat(stage_name)
                    op_rt.queue_stat = queue_stat
                queue_stat.add(wait)
            if late:
                job_metrics.start_violations += 1
            cost = cost_model.nominal(msg.tuple_count)
            exec_stat = op_rt.exec_stat
            if exec_stat is None:
                exec_stat = job_metrics.execution_stat(stage_name)
                op_rt.exec_stat = exec_stat
            exec_stat.add(cost)
            if self._tracer is not None:
                self._tracer.on_start(msg, op_rt, worker.local_id, now,
                                      wait, cost, self.run_queue)
            if not self._execute(worker, op_rt, msg, now, cost):
                return False
            # the clock stands at the completion instant: complete inline
            self._finish_message(worker, op_rt, msg, cost, now)
            if len(mailbox) == 0:
                self._release(op_rt, worker, requeue=False)
                return True
            if (sim.now - worker.quantum_start >= quantum
                    and self._quantum_expired(worker, op_rt)):
                return True

    def _execute(self, worker: Worker, op_rt: OperatorRuntime, msg: Message,
                 now: float, cost: float) -> bool:
        """Spend ``cost`` — the step of the message path a backend
        overrides.  True when the clock now stands at the completion
        instant (the caller completes the message inline); False when a
        completion event was scheduled instead."""
        sim = self.sim
        if sim.try_advance(now + cost):
            return True
        sim.schedule_fast(cost, self._complete_message, worker, op_rt, msg,
                          cost, now)
        return False

    def _complete_message(
        self, worker: Worker, op_rt: OperatorRuntime, msg: Message, cost: float,
        started: float,
    ) -> None:
        """Kernel-event completion path (when inline advance was refused)."""
        if worker.current_op is not op_rt:
            # the node crashed while this message was in flight: the quantum
            # died with it (fail-stop), the worker was already reset, and the
            # upstream retransmit buffer still holds the message for replay
            self.metrics.messages_lost_crash += 1
            if self._tracer is not None:
                self._tracer.on_lost_crash(msg, self.sim.now)
            return
        self._finish_message(worker, op_rt, msg, cost, started)
        if len(op_rt.mailbox) == 0:
            self._release(op_rt, worker, requeue=False)
            self._worker_next(worker)
            return
        if (self.sim.now - worker.quantum_start >= self._quantum
                and self._quantum_expired(worker, op_rt)):
            self._worker_next(worker)
            return
        if self._run_op(worker, op_rt):
            self._worker_next(worker)

    def _quantum_expired(self, worker: Worker, op_rt: OperatorRuntime) -> bool:
        """The quantum boundary, reached with mail left in ``op_rt``: the
        one step of the dispatch loop a backend with its own event loop
        overrides.  True when the worker let go of the operator (swapped
        out for a strictly more urgent one, or leaving on a migration);
        False when it runs on in a fresh quantum."""
        if op_rt.pending_migration is not None or self.run_queue.should_swap(op_rt):
            self._release(op_rt, worker, requeue=True)
            return True
        worker.quantum_start = self.sim.now  # fresh quantum, same operator
        return False

    def _finish_message(
        self, worker: Worker, op_rt: OperatorRuntime, msg: Message, cost: float,
        started: float,
    ) -> None:
        """Everything that happens at a message's completion instant
        (``started`` is the instant its execution began)."""
        now = self.sim.now
        worker.busy_time += cost
        tracer = self._tracer
        worker.messages_executed += 1
        job_metrics = op_rt.job_metrics
        job_metrics.messages_processed += 1
        self.metrics.total_messages += 1
        emissions = op_rt.operator.on_message(msg, now)
        if tracer is not None:
            # behind the operator's work: a wall-clock recorder books the
            # realized execution time, and sim time does not move here
            tracer.on_execute_end(msg, now, cost)
        batch = msg.batch
        if op_rt.is_sink and batch is not None and len(batch) > 0:
            latency = now - msg.t
            job_metrics.record_output(
                now, latency, msg.tuple_count, float(batch.values.sum())
            )
            if tracer is not None:
                tracer.on_output(msg, now, latency)
        elif op_rt.is_source:
            count = msg.tuple_count
            job_metrics.tuples_processed += count
            job_metrics.source_events.append((now, count))
        transport = self._transport
        if op_rt.converter is not None:
            self._profiler.record(op_rt.address, cost)
            transport.send_reply(op_rt, msg)
        if self._record_timeline:
            self.metrics.record_timeline_point(
                now, op_rt.job.name, op_rt.stage_name, op_rt.address.index,
                msg.msg_id, started,
            )
        if self._reliable is not None:
            # ack on processing completion, not delivery: a crash can then
            # never silently drop a message that had merely been queued
            self._reliable.on_processed(op_rt, msg)
        if emissions:
            transport.route_emissions(op_rt, msg, emissions, worker)
