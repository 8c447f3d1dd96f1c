"""Node introspection: one sampler, one record, two clocks.

:func:`sample` reads one :class:`~repro.runtime.node.NodeRuntime` into one
:class:`~repro.obs.spans.SchedSample`: run-queue depth (queued operators),
head priority and lifetime counters (``pushes`` / ``pops``), worker
occupancy and utilization since the previous reading, the keyed-state
footprint of the operators currently placed on the node, the unacked sends
of its delivery layer, and cumulative messages executed.  Both backends
call it at the ``trace_sample_interval`` cadence: the sim's
:class:`SchedulerSampler` from a kernel tick every ``interval`` simulated
seconds, the mp worker on itself from its pipe loop on the wall clock
(into its recorder, whose ``TRACE`` frames carry the readings beside the
span parts, see :mod:`repro.obs.merge`).

Determinism: the sampler schedules kernel events, but its callbacks are
*observationally inert* — ``peek_best_priority()`` only performs the lazy
heap maintenance (`_clean_top`) that the next ``pop`` would perform
anyway, under the same total ``(key, seq)`` order, so the pop order of
live entries is unchanged, and ``pending_operator_count()`` reads a
counter.  Sampler events can
make the kernel refuse a quantum-batched inline advance, but the
documented fallback (heap-scheduled completion) yields an identical
observable event order.  Net effect: tracing-on runs produce bit-identical
execution timelines to tracing-off runs (pinned by
``tests/obs/test_trace_determinism.py``).

The sim sampler re-arms itself forever; it is only installed on engines
built with ``record_trace=True``, whose ``run(until=...)`` bounds the clock.
"""

from __future__ import annotations

from repro.obs.spans import SchedSample

_NAN = float("nan")


def sample(node, now: float, elapsed: float, ops, busy_seen: dict,
           ingest_backlog: int = 0) -> SchedSample:
    """One reading of ``node`` at ``now``, ``elapsed`` seconds after the
    previous one.

    ``ops`` are the operator runtimes that may be placed on the node (read
    through each op's *live* ``node_id``, so migrations and rescales
    attribute state to the node that actually holds it); ``busy_seen`` is
    the caller-held map of last-observed cumulative busy time per (node,
    worker slot), updated here for the next reading's utilization delta."""
    run_queue = node.run_queue
    depth = run_queue.pending_operator_count()
    best = run_queue.peek_best_priority()
    head = _NAN if best is None else best
    node_id = node.node_id
    busy = active = executed = 0
    busy_delta = 0.0
    for worker in node.workers:
        if not worker.retired:
            active += 1
            if not worker.idle:
                busy += 1
        key = (node_id, worker.local_id)
        prev = busy_seen.get(key, 0.0)
        busy_delta += worker.busy_time - prev
        busy_seen[key] = worker.busy_time
        executed += worker.messages_executed
    if active > 0 and elapsed > 0:
        # busy time is booked in lumps at completion instants, so a
        # message longer than the interval lands in one reading: clamp
        utilization = min(1.0, busy_delta / (elapsed * active))
    else:
        utilization = 0.0
    state_bytes = 0
    pending_windows = 0
    for op_rt in ops:
        if op_rt.node_id != node_id:
            continue
        store = op_rt.operator.state_store
        if store is not None:
            state_bytes += store.approx_size()
            pending_windows += store.pending_window_count
    reliable = node._reliable
    return SchedSample(
        now, node_id, depth, head,
        busy, active, utilization,
        getattr(run_queue, "pushes", 0),
        getattr(run_queue, "pops", 0),
        state_bytes, pending_windows,
        0 if reliable is None else reliable.outstanding_total(node_id),
        ingest_backlog, executed,
    )


class SchedulerSampler:
    """The sim's cadence: samples every node each ``interval`` simulated
    seconds from a self-re-arming kernel tick."""

    def __init__(self, sim, nodes: list, ops: list, recorder, interval: float):
        if interval <= 0:
            raise ValueError("sample interval must be positive")
        self._sim = sim
        self._nodes = nodes
        self._ops = ops
        self._recorder = recorder
        self._interval = interval
        self._busy_seen: dict[tuple[int, int], float] = {}

    def start(self) -> None:
        self._sim.schedule_fast(self._interval, self._tick)

    def _tick(self) -> None:
        now = self._sim.now
        interval = self._interval
        for node in self._nodes:
            self._recorder.add_sample(
                sample(node, now, interval, self._ops, self._busy_seen))
        self._sim.schedule_fast(interval, self._tick)
