"""Span recorders: the tracing choke point.

With tracing off the runtime layers hold ``None`` and skip every hook
behind a single ``is not None`` test (the same dead-branch idiom the
dispatch loop uses for ``reliable`` / ``shed``), so the hot path stays
allocation-lean and figure outputs stay bit-identical.  With
it on they hold a :class:`TraceRecorder`, which allocates one
:class:`~repro.obs.spans.MessageSpan` per message hop and appends
scheduler samples.  It is **passive**: it never schedules events,
touches an RNG stream, or mutates runtime state, which is what makes
tracing-on runs produce bit-identical execution timelines to tracing-off
runs (pinned by ``tests/obs/test_trace_determinism.py``).
:class:`MpSpanRecorder` is its worker-local variant on the mp backend.

Single source of truth (metrics vs traces): the dispatch loop measures a
message's mailbox wait and execution cost exactly once and feeds the same
local values to both the per-stage :class:`~repro.metrics.stats.RunningStat`
aggregates (via ``JobMetrics.queueing_stat`` / ``execution_stat``) and
:meth:`TraceRecorder.on_start` / :meth:`on_execute_end`.  Per-stage stats
and traces therefore cannot disagree — ``tests/obs/test_recorder.py``
pins bitwise agreement between the two.
"""

from __future__ import annotations

from repro.obs.spans import (
    EXECUTED,
    LOST_CRASH,
    OUTPUT,
    PENDING,
    SHED,
    MessageSpan,
    SchedSample,
    sample_to_tuple,
    span_to_part,
)

_NAN = float("nan")


class TraceRecorder:
    """Records one causal span per message hop plus scheduler samples.

    Spans are keyed by ``msg_id`` and kept in creation (send) order; the
    execution-order view used by the stats-agreement tests is the order of
    ``on_start`` calls, which equals the order the dispatch loop updated
    the per-stage RunningStats in.
    """

    def __init__(self):
        self.spans: dict[int, MessageSpan] = {}
        self.samples: list[SchedSample] = []
        #: on_start order — mirrors the RunningStat add order exactly
        self.start_order: list[MessageSpan] = []
        #: lower-priority message began executing while a queued operator
        #: held a strictly higher-priority (smaller-key) head message
        self.inversions = 0
        #: transient crash losses (a replayed copy may still complete the span)
        self.lost_crash_events = 0

    # ------------------------------------------------------------------
    # message lifecycle hooks (called by transport / node / recovery)
    # ------------------------------------------------------------------

    def on_send(self, msg, parent_id: int, now: float) -> None:
        target = msg.target
        span = MessageSpan(msg.msg_id, parent_id, target.job, target.stage,
                           target.index, now)
        pc = msg.pc
        if pc is not None:
            span.pri_global = pc.pri_global
            span.deadline = pc.deadline
        span.tuples = msg.tuple_count
        self.spans[msg.msg_id] = span

    def on_transmit(self, msg, now: float) -> None:
        span = self.spans.get(msg.msg_id)
        if span is not None:
            span.last_tx = now
            span.transmits += 1

    def on_retransmit(self, msg, now: float) -> None:
        span = self.spans.get(msg.msg_id)
        if span is not None:
            # stall since the previous wire attempt; _transmit follows and
            # moves last_tx to now
            span.backoff += now - span.last_tx
            span.retransmits += 1

    def on_admit(self, msg, now: float) -> None:
        span = self.spans.get(msg.msg_id)
        if span is not None:
            if span.first_admit != span.first_admit:  # NaN: first admission
                span.first_admit = now
            else:
                # a replayed copy: the earlier attempt's queueing and
                # execution already lie inside ``admitted - first_admit``
                span.wait = 0.0
                span.exec = 0.0
            span.admitted = now

    def on_start(self, msg, op_rt, worker_id: int, now: float,
                 wait: float, cost: float, run_queue=None) -> None:
        span = self.spans.get(msg.msg_id)
        if span is None:
            return
        span.started = now
        if wait == wait:  # NaN-safe
            span.wait += wait
        span.node_id = op_rt.node_id
        span.worker = worker_id
        self.start_order.append(span)
        pc = msg.pc
        if run_queue is not None and pc is not None:
            best = run_queue.peek_best_priority()
            if best is not None and best < pc.pri_global:
                self.inversions += 1

    def on_execute_end(self, msg, now: float, cost: float) -> None:
        span = self.spans.get(msg.msg_id)
        if span is None:
            return
        span.exec += cost
        span.attempts += 1
        span.finished = now
        span.outcome = EXECUTED

    def on_output(self, msg, now: float, latency: float) -> None:
        span = self.spans.get(msg.msg_id)
        if span is not None:
            span.outcome = OUTPUT
            span.latency = latency

    def on_shed(self, msg, op_rt, now: float) -> None:
        span = self.spans.get(msg.msg_id)
        if span is None:
            return
        enqueue = msg.enqueue_time
        if enqueue == enqueue:  # NaN-safe
            span.wait += now - enqueue
        span.node_id = op_rt.node_id
        span.finished = now
        span.outcome = SHED

    def on_reply(self, msg, now: float) -> None:
        span = self.spans.get(msg.msg_id)
        if span is not None:
            span.replied = now

    def on_lost_crash(self, msg, now: float) -> None:
        """Queued or in-flight work died with a crashed node.  Transient:
        the reliable layer usually replays a copy (same ``msg_id``), whose
        later admission/execution supersedes this outcome — the gap shows
        up as the span's ``recovery`` component."""
        self.lost_crash_events += 1
        span = self.spans.get(msg.msg_id)
        if span is not None:
            span.finished = now
            span.outcome = LOST_CRASH

    # ------------------------------------------------------------------
    # scheduler introspection
    # ------------------------------------------------------------------

    def add_sample(self, sample: SchedSample) -> None:
        self.samples.append(sample)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def outputs(self) -> list[MessageSpan]:
        """Sink spans that produced an output, in send order."""
        return [s for s in self.spans.values() if s.outcome == OUTPUT]

    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for span in self.spans.values():
            counts[span.outcome] = counts.get(span.outcome, 0) + 1
        return counts

    def summary(self) -> dict:
        """JSON-able one-glance summary of the trace."""
        counts = self.outcome_counts()
        return {
            "spans": len(self.spans),
            "executed": counts.get(EXECUTED, 0) + counts.get(OUTPUT, 0),
            "outputs": counts.get(OUTPUT, 0),
            "shed": counts.get(SHED, 0),
            "lost_crash": counts.get(LOST_CRASH, 0),
            "pending": counts.get(PENDING, 0),
            "sched_samples": len(self.samples),
            "priority_inversions": self.inversions,
            "lost_crash_events": self.lost_crash_events,
        }


class MpSpanRecorder(TraceRecorder):
    """Worker-local recorder of the mp backend (one per worker process).

    Same hooks and accumulator semantics as :class:`TraceRecorder`, with
    three differences imposed by process boundaries and the wall clock:

    * a message admitted here but *sent* elsewhere has no local span yet —
      ``on_admit`` creates a receiver stub (``sent``/``parent`` unknown,
      left NaN/-1; the coordinator's
      :class:`~repro.obs.merge.SpanMerger` folds the sender's witness in);
    * every mutation marks the span dirty, and :meth:`drain` flushes the
      dirty set as flat wire tuples for a ``TRACE`` frame (cumulative: a
      span that keeps evolving is simply re-sent and the latest part wins
      per origin), together with the node samples added since the last
      drain and the cumulative :attr:`inversions`.  The spans themselves
      are retained for the run's lifetime — the same memory behaviour as
      the sim recorder; the samples leave with the drain;
    * ``exec`` is the *realized* wall time from ``started`` to the read of
      the worker ``clock`` in :meth:`on_execute_end` (cost realization plus
      the operator's actual work), not the sampled cost the stats book —
      children are sent after ``finished``, so chains stay causal; see
      docs/observability.md "mp semantics".
    """

    def __init__(self, clock):
        super().__init__()
        self._clock = clock
        self._dirty: set[int] = set()

    def on_admit(self, msg, now: float) -> None:
        if msg.msg_id not in self.spans:
            # receiver stub: a send with the sender's half unknown
            super().on_send(msg, -1, _NAN)
        super().on_admit(msg, now)

    def on_execute_end(self, msg, now: float, cost: float) -> None:
        # every started message has a span (on_admit stubs one if need be)
        now = self._clock.now
        super().on_execute_end(msg, now, now - self.spans[msg.msg_id].started)

    def drain(self) -> tuple[list[tuple], list[tuple], int]:
        """One ``TRACE`` payload: the wire tuples of every span touched and
        every sample added since the last drain, and the cumulative
        priority-inversion count."""
        spans = self.spans
        parts = [span_to_part(spans[msg_id]) for msg_id in sorted(self._dirty)]
        self._dirty.clear()
        samples = [sample_to_tuple(sample) for sample in self.samples]
        self.samples = []
        return parts, samples, self.inversions


def _marking_dirty(hook):
    def marked(self, msg, *args, **kwargs):
        hook(self, msg, *args, **kwargs)
        self._dirty.add(msg.msg_id)
    return marked


# the one place a hook marks its span for the next TRACE flush (the sim
# recorder's hooks stay plain methods)
for _name in ("on_send", "on_transmit", "on_retransmit", "on_admit",
              "on_start", "on_execute_end", "on_output", "on_shed",
              "on_reply"):
    setattr(MpSpanRecorder, _name,
            _marking_dirty(getattr(MpSpanRecorder, _name)))
