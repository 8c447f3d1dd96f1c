"""Cross-process span assembly for the mp backend.

On the sim backend one :class:`~repro.obs.recorder.TraceRecorder` sees a
message's whole life.  On the mp backend a hop is witnessed by (at least)
two processes: the *sender* records ``sent`` and the wire attempts, the
*receiver* records admission, queueing and execution.  Each worker keeps
its own partial span and periodically flushes the dirty ones to the
coordinator as ``TRACE`` frames of *span parts* — flat tuples in
:data:`PART_FIELDS` order (exactly ``MessageSpan.__slots__``), cumulative
per ``(msg_id, origin node)`` so a later part supersedes an earlier one.

:class:`SpanMerger` folds the parts into whole
:class:`~repro.obs.spans.MessageSpan` records inside a plain
``TraceRecorder``, so every downstream tool (Perfetto/JSONL exporters,
schema validation, deadline-miss attribution) runs unchanged:

* instants witnessed once take the witnessing part's value; instants both
  sides could see fold as min (``sent``, ``first_admit``) or max
  (``admitted``, ``started``, ``finished``, ``replied``, ``last_tx``);
* sender-side counters (``backoff``, ``transmits``, ``retransmits``)
  *sum* over per-node latest parts;
* receiver-side accumulators (``wait``/``exec``/``attempts``) come from
  the *decisive* part only: when a fail-over re-executes a hop on a
  survivor, the casualty's partial work lives inside the recovery window
  (``admitted - first_admit``) — summing both incarnations would count
  it twice against the telescoped total;
* the outcome comes from the part that finished last, so a replayed
  copy's ``executed`` naturally supersedes a casualty's ``lost_crash``;
* ``parent`` comes from the part that witnessed the send (a receiver
  stub reports -1 and never overrides a sender's link).

Node samples ride the same frame: each ``TRACE`` also carries the
:class:`~repro.obs.spans.SchedSample` readings the worker took since its
previous flush (as ``SchedSample.__slots__`` tuples) and the worker's
cumulative priority-inversion count.  The merger keeps every sample and
the latest count per node.

One clock: every instant in a part or sample is ``time.monotonic() -
epoch`` with the coordinator's ``START`` epoch.  Workers are forked on the
coordinator's host and ``CLOCK_MONOTONIC`` is system-wide, so the
processes read one clock and instants from different workers compare
as they are.
"""

from __future__ import annotations

from math import isnan

from repro.obs.recorder import TraceRecorder
from repro.obs.spans import (
    LOST_CRASH,
    PART_FIELDS,
    PENDING,
    MessageSpan,
    SchedSample,
    span_to_part,
)

_NAN = float("nan")

__all__ = ["PART_FIELDS", "span_to_part", "SpanMerger"]

#: sender-side counters that accumulate across the hop's witnesses
_SUM_FIELDS = ("backoff", "transmits", "retransmits")
#: receiver-side accumulators taken from the decisive part (see module doc)
_DECISIVE_FIELDS = ("wait", "exec", "attempts")


class SpanMerger:
    """Folds per-worker span parts and node samples into one recorder.

    ``add`` is called as ``TRACE`` frames arrive; parts are keyed by
    ``(msg_id, origin node)`` with latest-wins (each part is cumulative
    for its origin).  ``build`` runs the fold and returns a filled
    :class:`~repro.obs.recorder.TraceRecorder`."""

    def __init__(self):
        #: msg_id -> {origin node -> latest part tuple}
        self._parts: dict[int, dict[int, tuple]] = {}
        self._samples: list[tuple] = []
        #: origin node -> its latest cumulative priority-inversion count
        self._inversions: dict[int, int] = {}
        self.part_count = 0

    def add(self, origin_node: int, parts: list[tuple], samples: list[tuple],
            inversions: int) -> None:
        """Fold one ``TRACE`` frame's payload (see
        :meth:`~repro.obs.recorder.MpSpanRecorder.drain`)."""
        for part in parts:
            self.part_count += 1
            self._parts.setdefault(part[0], {})[origin_node] = part
        self._samples.extend(samples)
        self._inversions[origin_node] = inversions

    def _merge_one(self, msg_id: int, by_node: dict[int, tuple]) -> MessageSpan:
        records = [dict(zip(PART_FIELDS, by_node[origin]))
                   for origin in sorted(by_node)]

        first = records[0]
        span = MessageSpan(msg_id, -1, first["job"], first["stage"],
                           first["index"], _NAN)

        def fold(name: str, pick) -> float:
            values = [r[name] for r in records if not isnan(r[name])]
            return pick(values) if values else _NAN

        span.sent = fold("sent", min)
        span.first_admit = fold("first_admit", min)
        span.admitted = fold("admitted", max)
        span.started = fold("started", max)
        span.finished = fold("finished", max)
        span.replied = fold("replied", max)
        span.last_tx = fold("last_tx", max)
        for name in _SUM_FIELDS:
            setattr(span, name, sum(r[name] for r in records))
        span.tuples = max(r["tuples"] for r in records)
        span.pri_global = fold("pri_global", max)
        span.deadline = fold("deadline", max)

        # the send witness owns the causal link (receiver stubs carry -1)
        for rec in records:
            if not isnan(rec["sent"]):
                span.parent = rec["parent"]
                break

        # outcome / placement from the decisive (latest-finishing) part;
        # a replay that finished later supersedes a lost_crash casualty
        decisive = None
        for rec in records:
            if rec["outcome"] == PENDING:
                continue
            if (
                decisive is None
                or isnan(decisive["finished"])
                or (not isnan(rec["finished"])
                    and rec["finished"] > decisive["finished"])
                or (decisive["outcome"] == LOST_CRASH
                    and rec["outcome"] != LOST_CRASH)
            ):
                decisive = rec
        if decisive is None:
            # still pending: take placement from whoever admitted it
            for rec in records:
                if rec["node_id"] >= 0:
                    decisive = rec
                    break
        if decisive is not None:
            span.node_id = decisive["node_id"]
            span.worker = decisive["worker"]
            span.outcome = decisive["outcome"]
            span.latency = decisive["latency"]
        source = decisive
        if source is None:
            # pending everywhere: the receiver part (if any) holds the
            # only non-zero accumulators, and max picks it out
            source = max(records, key=lambda r: (r["attempts"], r["wait"]))
        for name in _DECISIVE_FIELDS:
            setattr(span, name, source[name])
        return span

    def build(self) -> TraceRecorder:
        recorder = TraceRecorder()
        for msg_id in sorted(self._parts):
            span = self._merge_one(msg_id, self._parts[msg_id])
            recorder.spans[msg_id] = span
            if span.outcome == LOST_CRASH:
                recorder.lost_crash_events += 1
        samples = [SchedSample(*fields) for fields in self._samples]
        samples.sort(key=lambda s: (s.time, s.node_id))
        recorder.samples = samples
        recorder.inversions = sum(self._inversions.values())
        return recorder
