"""Messages: the unit of scheduling.

A message ``M = (o_M, (p_M, t_M))`` (paper Table 1) targets exactly one
operator.  It carries:

* ``p``  — the logical time (stream progress) of the last event required to
  produce it,
* ``t``  — the physical time at which that progress was observed at a
  source operator,
* ``deps_arrival`` — the wall-clock arrival time of the *latest* event that
  influenced it (the paper's latency anchor, §4.1),
* a :class:`~repro.core.context.PriorityContext` slot filled in by the
  context converter before the message is handed to the scheduler.

``Message`` is a plain ``__slots__`` class rather than a dataclass: one is
allocated per hop on the hot path (millions per experiment), so it must be
cheap to construct and small in memory.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.context import PriorityContext
    from repro.dataflow.events import EventBatch

_message_ids = itertools.count()

_NAN = float("nan")


class Message:
    """A scheduled unit of work addressed to one operator.

    ``target`` / ``sender`` are opaque operator addresses assigned by the
    runtime (``(job_name, stage_name, index)`` tuples in practice).
    """

    __slots__ = (
        "target",
        "batch",
        "p",
        "t",
        "deps_arrival",
        "sender",
        "pc",
        "channel_index",
        "msg_id",
        "enqueue_time",
        "seq",
    )

    def __init__(
        self,
        target: Any,
        batch: Optional["EventBatch"] = None,
        p: float = 0.0,
        t: float = 0.0,
        deps_arrival: float = 0.0,
        sender: Any = None,
        pc: Optional["PriorityContext"] = None,
        channel_index: int = 0,
        msg_id: Optional[int] = None,
        enqueue_time: float = _NAN,
    ):
        self.target = target
        self.batch = batch
        self.p = p
        self.t = t
        self.deps_arrival = deps_arrival
        self.sender = sender
        self.pc = pc
        self.channel_index = channel_index
        self.msg_id = next(_message_ids) if msg_id is None else msg_id
        self.enqueue_time = enqueue_time
        # reliable-delivery field, assigned (not a constructor arg) to keep
        # the fault-free construction path unchanged: per-channel sequence
        # number (-1 = not under reliable delivery)
        self.seq = -1

    # -- pickling ------------------------------------------------------
    # A bare ``__slots__`` class pickles only under protocol >= 2; the
    # explicit tuple-based state methods make every protocol work (the
    # process backend ships messages over pipes, and snapshots may choose
    # their own protocol) and skip the per-slot dict the default slot
    # reduction would build.  ``msg_id`` travels with the state: an
    # unpickled message is the *same* message, not a new one, so the
    # global id counter is never consulted on the receiving side.

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, slot) for slot in Message.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for slot, value in zip(Message.__slots__, state):
            setattr(self, slot, value)

    def __reduce__(self):
        return (_rebuild_message, (self.__getstate__(),))

    @property
    def tuple_count(self) -> int:
        """Number of event tuples carried (0 without a batch)."""
        return 0 if self.batch is None else len(self.batch)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(id={self.msg_id}, target={self.target}, "
            f"p={self.p:.3f}, t={self.t:.3f}, n={self.tuple_count})"
        )


def _rebuild_message(state: tuple) -> Message:
    """Pickle reconstructor: bypasses ``__init__`` (no id allocation)."""
    msg = Message.__new__(Message)
    msg.__setstate__(state)
    return msg


def reset_message_ids() -> None:
    """Restart the global message-id counter (test isolation helper)."""
    global _message_ids
    _message_ids = itertools.count()


def stride_message_ids(node_id: int) -> None:
    """Move this process's id counter into a per-node block.

    Forked mp workers inherit the parent's counter position, so without
    this two workers would mint colliding ``msg_id`` values for distinct
    messages — harmless to delivery (channels dedupe by ``seq``), fatal
    to anything keyed on message identity across processes (the span
    merger).  A 2^40 stride leaves each worker a trillion ids and stays
    comfortably inside the wire format's i64."""
    global _message_ids
    _message_ids = itertools.count((node_id + 1) << 40)
