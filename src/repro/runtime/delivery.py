"""The reliable-channel protocol: one sans-IO core for both backends.

A channel carries messages from one sender to one receiver in per-channel
FIFO order (§4.3) over a medium that may lose, duplicate, delay or
re-order them: go-back-N with cumulative ``(admitted, processed)`` acks
and capped exponential backoff.  :class:`SenderHalf` and
:class:`ReceiverHalf` are its only implementation — pure state machines
that take ``now`` and an input and return what to do, and never touch a
kernel, a pipe, a metrics hub or an RNG.  Those belong to the drivers:
:class:`repro.runtime.recovery.ReliableDelivery` (kernel events) and
:class:`repro.runtime.mp.reliable.MpReliableDelivery` (polled wall clock).

A half never schedules a timer.  After anything that may leave unadmitted
messages behind (send, ack, expiry, roll-back) the driver puts its frames
on the wire, calls :meth:`SenderHalf.arm` and, when that returns True,
waits ``rto`` seconds in whatever way its clock allows.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.dataflow.messages import Message

#: :meth:`ReceiverHalf.on_data` verdict bits
ACK = 1        #: the sender's cumulative view is stale: acknowledge
DUPLICATE = 2  #: the entry was seen before and is dropped
ADMIT = 4      #: the entry is next in order: hand it to the mailbox

INF = float("inf")

#: initial retransmission timer and the cap of its exponential backoff
#: (seconds) on every engine-built channel, either backend
RETRANSMIT_TIMEOUT = 0.05
RETRANSMIT_BACKOFF_CAP = 0.8


def check_rto(rto: float, rto_cap: float) -> None:
    """Validate a retransmit timer and the cap of its backoff."""
    if rto <= 0 or rto_cap < rto:
        raise ValueError("need 0 < rto <= rto_cap")


class SenderHalf:
    """Sending end of one channel: sequence numbers, retention, backoff.

    Invariant: ``unacked`` holds exactly the contiguous sequence range
    ``(released_w, next_seq)`` — appended at the top, released as a prefix
    up to ``min(processed_w, stable_w)``.  With ``retain``, ``stable_w`` is
    the highest sequence a checkpoint of the receiver covers, so processed
    but uncheckpointed messages stay replayable; without, it never binds.
    """

    __slots__ = (
        "next_seq", "unacked", "admitted_w", "processed_w", "stable_w",
        "released_w", "rto", "rto_initial", "rto_cap", "deadline", "armed_at",
        "generation", "backoff_time", "retransmit_count",
    )

    def __init__(self, rto: float, rto_cap: float, retain: bool = False):
        self.next_seq = 0
        self.unacked: dict[int, Message] = {}
        self.admitted_w = -1     # highest seq known to have reached a mailbox
        self.processed_w = -1    # highest seq known to have been processed
        self.stable_w = -1 if retain else INF
        self.released_w = -1     # highest seq released from ``unacked``
        self.rto = self.rto_initial = rto
        self.rto_cap = rto_cap
        self.deadline: Optional[float] = None  # armed retransmit instant
        self.armed_at = 0.0
        #: bumped whenever a live timer is superseded; a driver that cannot
        #: cancel a scheduled expiry compares it against the value it armed
        self.generation = 0
        self.backoff_time = 0.0  # Σ stalls before retransmitting expiries
        self.retransmit_count = 0

    def assign(self, msg: Message) -> bool:
        """Give ``msg`` the next sequence number; True when it is retained
        (a rewound sender re-emits sequences a receiver checkpoint already
        covers — pure duplicates, not retained)."""
        seq = msg.seq = self.next_seq
        self.next_seq = seq + 1
        if seq > self.released_w:
            self.unacked[seq] = msg
            return True
        return False

    def needs_retransmit(self) -> bool:
        """True while some sent message has not reached a mailbox."""
        return self.next_seq - 1 > self.admitted_w and bool(self.unacked)

    def unadmitted(self) -> list[Message]:
        """The go-back-N replay: retained messages beyond ``admitted_w``."""
        unacked = self.unacked
        return [unacked[seq]
                for seq in range(self.admitted_w + 1, self.next_seq)
                if seq in unacked]

    @property
    def outstanding(self) -> int:
        """Messages sent but not yet acknowledged as *processed*: the live
        backlog, zero at quiescence even when retention keeps replay copies."""
        return self.next_seq - 1 - self.processed_w

    def arm(self, now: float) -> bool:
        """Arm the retransmit timer if it is idle and needed; True when
        newly armed (``deadline`` set, ``generation`` names this arming)."""
        if self.deadline is not None or not self.needs_retransmit():
            return False
        self.deadline = now + self.rto
        self.armed_at = now
        return True

    def _disarm(self) -> None:
        """Supersede any live timer and restart the backoff clock."""
        self.generation += 1
        self.deadline = None
        self.rto = self.rto_initial

    def expire(self, now: float) -> tuple[list[Message], float]:
        """The armed timer ran out: ``(replays, stall)`` — what goes on the
        wire again and how long the channel sat on this timer (nothing and
        zero if all was admitted meanwhile).  Doubles the RTO up to its cap."""
        self.deadline = None
        if not self.needs_retransmit():
            self.rto = self.rto_initial
            return [], 0.0
        stall = now - self.armed_at
        self.backoff_time += stall
        replays = self.unadmitted()
        self.retransmit_count += len(replays)
        self.rto = min(self.rto * 2.0, self.rto_cap)
        return replays, stall

    def on_ack(self, admitted: int, processed: int) -> int:
        """Cumulative ack; returns messages released.  Fresh news
        supersedes the timer and restarts the backoff clock."""
        released = 0
        progressed = admitted > self.admitted_w
        if progressed:
            self.admitted_w = admitted
        if processed > self.processed_w:
            self.processed_w = processed
            released = self._release()
            progressed = True
        if progressed:
            self._disarm()
        return released

    def mark_stable(self, stable: int) -> int:
        """A receiver checkpoint covers everything through ``stable``;
        returns messages released."""
        if stable <= self.stable_w:
            return 0
        self.stable_w = stable
        return self._release()

    def _release(self) -> int:
        bound = min(self.processed_w, self.stable_w)
        if bound <= self.released_w:
            return 0
        unacked = self.unacked
        retained = len(unacked)
        for seq in range(self.released_w + 1, bound + 1):
            unacked.pop(seq, None)
        self.released_w = bound
        return retained - len(unacked)

    def rollback(self, frontier: int) -> None:
        """Fail-over: the receiver was reborn with an empty mailbox and its
        processed frontier at ``frontier``.  Which frontier is the caller's
        knowledge: the sim announces the receiver's true watermark with the
        fail-over, an mp sender only has its own ``processed_w``."""
        self.admitted_w = frontier
        self._disarm()

    def rollback_processed(self, frontier: int) -> None:
        """Checkpoint restore: the receiver's *state* fell back to
        ``frontier``, so even processed messages beyond it go out again.
        Only ever lowers what the sender believes — one that missed acks
        keeps replaying from what it knows was admitted."""
        self.admitted_w = min(self.admitted_w, frontier)
        self.processed_w = min(self.processed_w, frontier)
        self._disarm()

    def rewind(self, next_seq: int) -> int:
        """Re-emit from ``next_seq`` under the original sequence numbers
        (deterministic replay after a restore); returns the stale buffered
        copies dropped — the re-emission supersedes them."""
        retained = len(self.unacked)
        for seq in range(next_seq, self.next_seq):
            self.unacked.pop(seq, None)
        self.next_seq = min(self.next_seq, next_seq)
        return retained - len(self.unacked)


class ReceiverHalf:
    """Receiving end of one channel: dedupe and in-order admission.
    ``watermark`` is the cumulative processed sequence, ``processed`` the
    sequences processed out of order beyond it, ``pending`` the arrivals
    held for a gap below them."""

    __slots__ = ("next_admit", "watermark", "processed", "pending")

    def __init__(self):
        self.next_admit = 0
        self.watermark = -1
        self.processed: set[int] = set()
        self.pending: dict[int, Message] = {}

    def on_data(self, msg: Message) -> int:
        """Classify one arriving entry: a combination of :data:`ADMIT`,
        :data:`ACK` and :data:`DUPLICATE`.  On ``ADMIT`` the driver hands
        ``msg`` to the mailbox and then calls :meth:`advance` until it
        runs dry; the frontier moves only behind each hand-over, so an ack
        built meanwhile never claims a message still on its way in."""
        seq = msg.seq
        if seq <= self.watermark or seq in self.processed:
            return DUPLICATE | ACK  # refresh the sender's view
        if seq < self.next_admit:
            return DUPLICATE  # already in the mailbox awaiting processing
        if seq != self.next_admit:
            self.pending[seq] = msg  # out of order: hold for the gap
            return 0
        return ADMIT | ACK

    def advance(self) -> Optional[Message]:
        """The message at ``next_admit`` reached the mailbox: move past it
        (and past sequences processed before a reset) and return the
        buffered message that is next in order, if any."""
        nxt = self.next_admit + 1
        while nxt in self.processed:
            nxt += 1
        self.next_admit = nxt
        return self.pending.pop(nxt, None)

    def on_processed(self, seq: int) -> None:
        """Final disposition of a message (executed or shed)."""
        if seq != self.watermark + 1:
            self.processed.add(seq)
            return
        while seq + 1 in self.processed:
            seq += 1
            self.processed.remove(seq)
        self.watermark = seq

    def cumulative_ack(self) -> tuple[int, int]:
        """The ``(admitted, processed)`` pair an ack carries."""
        return self.next_admit - 1, self.watermark

    def reset(self, base_seq: int, processed: Iterable[int] = ()) -> None:
        """Admit from ``base_seq`` again, treating everything below it and
        every sequence in ``processed`` as done: a crash (mailbox contents
        died — own watermark, own set), a checkpoint restore (the recorded
        frontier and set, whose effects the snapshot holds) or a
        re-incarnated sender (forward to its base)."""
        self.watermark = base_seq - 1
        self.processed = set(processed)
        self.pending.clear()
        self.next_admit = base_seq
