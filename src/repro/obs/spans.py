"""Span model: one record per message hop, plus introspection samples.

A *hop* is one message's life between two operators: it is **sent** (built
and handed to the transport), **admitted** to the target's mailbox (after
transit — and, under reliable delivery, possibly several transmissions and
retransmit backoff), waits its **mailbox** time, **starts** executing, and
**finishes** with an outcome.  The timestamps are chosen so every span
telescopes exactly::

    finished - sent =   (first_admit - sent)        # network (flight+backoff)
                      + (admitted - first_admit)    # recovery (crash replay)
                      + wait                        # mailbox queueing
                      + exec                        # execution

``admitted`` is the **last** admission instant — after a crash the
replayed copy re-enters the mailbox later than ``first_admit``, and the
gap is exactly the time recovery cost this hop.  ``wait`` and ``exec``
are therefore those of the last admission: a re-admission resets them,
since whatever the earlier attempt queued and executed lies inside the
recovery gap.

Spans are plain ``__slots__`` records: the tracer allocates one per hop
only when tracing is enabled, so the fault-free / tracing-off hot path
never sees them.
"""

from __future__ import annotations

from operator import attrgetter

_NAN = float("nan")

#: span outcomes (``outcome`` field)
PENDING = "pending"          # created, not yet finished
EXECUTED = "executed"        # ran to completion at a non-sink operator
OUTPUT = "output"            # ran at a sink and produced an output
SHED = "shed"                # dropped unexecuted by the deadline shedder
LOST_CRASH = "lost_crash"    # died in a mailbox or in flight on a crashed node


class MessageSpan:
    """Causal trace record for one message hop.

    ``parent`` is the ``msg_id`` of the message whose execution emitted
    this one (-1 for ingested roots); child ``sent`` always equals parent
    ``finished``, so chains telescope end to end.
    """

    __slots__ = (
        "msg_id", "parent", "job", "stage", "index",
        "sent", "first_admit", "admitted", "started", "finished",
        "wait", "exec", "backoff", "last_tx",
        "transmits", "retransmits", "attempts",
        "node_id", "worker", "pri_global", "deadline", "tuples",
        "outcome", "latency", "replied",
    )

    def __init__(self, msg_id: int, parent: int, job: str, stage: str,
                 index: int, sent: float):
        self.msg_id = msg_id
        self.parent = parent
        self.job = job
        self.stage = stage
        self.index = index
        self.sent = sent
        self.first_admit = _NAN
        self.admitted = _NAN
        self.started = _NAN
        self.finished = _NAN
        self.wait = 0.0        # mailbox wait since the last admission
        self.exec = 0.0        # execution cost since the last admission
        self.backoff = 0.0     # Σ retransmit-timer stalls (sender side)
        self.last_tx = sent    # last transmission attempt (reliable delivery)
        self.transmits = 0     # wire attempts (0 on the fire-and-forget path)
        self.retransmits = 0
        self.attempts = 0      # execution attempts (crash replays re-execute)
        self.node_id = -1
        self.worker = -1
        self.pri_global = _NAN
        self.deadline = _NAN
        self.tuples = 0
        self.outcome = PENDING
        self.latency = _NAN    # recorded end-to-end latency (sink outputs only)
        self.replied = _NAN    # instant the RC acknowledgement left (if any)

    # -- derived components (see module docstring for the identity) --------

    @property
    def network(self) -> float:
        """Sent → first admission: flight plus sender-side backoff."""
        return self.first_admit - self.sent

    @property
    def recovery(self) -> float:
        """First → last admission: time lost to crash-and-replay (0 normally)."""
        return self.admitted - self.first_admit

    @property
    def total(self) -> float:
        """Sent → finished (NaN while pending)."""
        return self.finished - self.sent

    def components(self) -> dict[str, float]:
        """The four additive components of :attr:`total`."""
        return {
            "network": self.network,
            "recovery": self.recovery,
            "queueing": self.wait,
            "execution": self.exec,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MessageSpan(id={self.msg_id}, {self.job}/{self.stage}[{self.index}], "
            f"outcome={self.outcome}, total={self.total:.6f})"
        )


#: wire layout of one mp-backend span part (see :mod:`repro.obs.merge`):
#: a worker flushes its partial span as a flat tuple in slot order
PART_FIELDS = MessageSpan.__slots__


def span_to_part(span: MessageSpan) -> tuple:
    """Flatten a worker-local span into its ``TRACE``-frame wire tuple."""
    return tuple(getattr(span, name) for name in PART_FIELDS)


class SchedSample:
    """One periodic sensor reading of one node (either backend)."""

    __slots__ = (
        "time", "node_id", "depth", "head_priority", "busy_workers",
        "active_workers", "quantum_utilization", "pushes", "pops",
        "notify_skips", "state_bytes", "pending_windows",
        "outstanding_retransmits", "ingest_backlog", "messages_processed",
    )

    def __init__(self, time: float, node_id: int, depth: int,
                 head_priority: float, busy_workers: int, active_workers: int,
                 quantum_utilization: float, pushes: int, pops: int,
                 notify_skips: int, state_bytes: int = 0,
                 pending_windows: int = 0, outstanding_retransmits: int = 0,
                 ingest_backlog: int = 0, messages_processed: int = 0):
        self.time = time
        self.node_id = node_id
        self.depth = depth
        self.head_priority = head_priority
        self.busy_workers = busy_workers
        self.active_workers = active_workers
        self.quantum_utilization = quantum_utilization
        self.pushes = pushes
        self.pops = pops
        self.notify_skips = notify_skips
        # keyed-state footprint of the node's operators (approx bytes and
        # open windows), sampled from the state layer's approx_size()
        self.state_bytes = state_bytes
        self.pending_windows = pending_windows
        # sent but not yet acknowledged by the node's delivery layer
        self.outstanding_retransmits = outstanding_retransmits
        # ingest entries the node's local replay has not yet admitted
        self.ingest_backlog = ingest_backlog
        self.messages_processed = messages_processed  # cumulative

    def as_dict(self) -> dict:
        head = self.head_priority
        return {
            "time": self.time,
            "node": self.node_id,
            "depth": self.depth,
            # None when the run queue was empty or carries no priorities
            # (keeps the serialized form strict-JSON: no NaN tokens)
            "head_priority": head if head == head else None,
            "busy_workers": self.busy_workers,
            "active_workers": self.active_workers,
            "quantum_utilization": self.quantum_utilization,
            "pushes": self.pushes,
            "pops": self.pops,
            "notify_skips": self.notify_skips,
            "state_bytes": self.state_bytes,
            "pending_windows": self.pending_windows,
            "outstanding_retransmits": self.outstanding_retransmits,
            "ingest_backlog": self.ingest_backlog,
            "messages_processed": self.messages_processed,
        }


#: flatten a sample into its ``TRACE``-frame wire tuple (slot order; the
#: coordinator rebuilds it as ``SchedSample(*fields)``)
sample_to_tuple = attrgetter(*SchedSample.__slots__)
