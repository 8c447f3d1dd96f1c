"""Wall-clock driver of the channel protocol for the process backend.

The protocol itself — sequence numbers, cumulative ``(admitted,
processed)`` acks, in-order admission, duplicate suppression, go-back-N
under capped exponential backoff — is :mod:`repro.runtime.delivery`,
shared with the simulated :class:`~repro.runtime.recovery.
ReliableDelivery`.  This driver splits a channel across processes: its
``SenderHalf`` lives in the producing worker, its ``ReceiverHalf`` in the
consuming worker, and the two exchange information only through ``DATA``
frame entries.  A channel is ``(msg.sender, msg.target)``, the key the
simulated driver uses.

What is wall-clock here: a worker has no event heap, so the dispatch loop
polls :meth:`due_retransmits` every iteration and bounds its idle wait by
:meth:`next_deadline`; cumulative acks are coalesced per channel between
flushes (:meth:`drain_acks`); fail-over re-keys channels when the
coordinator announces a re-placement.  In-order admission is structural
in the receiver half; the run-time check that it held end to end is the
transport's admission audit (``ProcessTransport.fifo_violations``).
Loss injection happens in the transport, before :meth:`on_data`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.dataflow.messages import Message
from repro.runtime.delivery import (
    ACK,
    ADMIT,
    DUPLICATE,
    ReceiverHalf,
    SenderHalf,
    check_rto,
)


class MpReliableDelivery:
    """Both halves of every reliable channel one worker participates in."""

    def __init__(self, clock: Callable[[], float], rto: float, rto_cap: float,
                 metrics):
        check_rto(rto, rto_cap)
        self._clock = clock
        self._rto = rto
        self._rto_cap = rto_cap
        self._metrics = metrics
        self._senders: dict[tuple, SenderHalf] = {}
        self._receivers: dict[tuple, ReceiverHalf] = {}
        #: channels whose cumulative ack changed since the last drain
        self._ack_dirty: set[tuple] = set()
        #: span recorder (None = tracing off: zero hot-path residue)
        self._tracer = None

    def attach_tracer(self, tracer) -> None:
        """Install the worker's span recorder (observability plane)."""
        self._tracer = tracer

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------

    def send(self, msg: Message) -> Message:
        """Assign the channel sequence number and retain for retransmit."""
        key = (msg.sender, msg.target)
        sender = self._senders.get(key)
        if sender is None:
            sender = self._senders[key] = SenderHalf(self._rto, self._rto_cap)
        sender.assign(msg)
        if sender.deadline is None:
            sender.arm(self._clock())
        if self._tracer is not None:
            self._tracer.on_transmit(msg, self._clock())
        return msg

    def on_ack(self, key: tuple, admitted: int, processed: int) -> None:
        sender = self._senders.get(key)
        if sender is not None:
            sender.on_ack(admitted, processed)
            if sender.deadline is None:
                sender.arm(self._clock())

    def due_retransmits(self, now: float) -> list[Message]:
        """Go-back-N replays for every channel whose timer expired; the
        caller enqueues them on the appropriate outboxes."""
        due: list[Message] = []
        tracer = self._tracer
        for sender in self._senders.values():
            if sender.deadline is None or now < sender.deadline:
                continue
            replays, _stall = sender.expire(now)
            self._metrics.retransmissions += len(replays)
            if tracer is not None:
                for msg in replays:
                    # stall since the last wire attempt, then the
                    # replay itself becomes the new last attempt
                    tracer.on_retransmit(msg, now)
                    tracer.on_transmit(msg, now)
            due.extend(replays)
            sender.arm(now)
        return due

    def next_deadline(self) -> Optional[float]:
        """Earliest armed retransmit instant (bounds the idle wait)."""
        deadlines = [
            s.deadline for s in self._senders.values() if s.deadline is not None
        ]
        return min(deadlines) if deadlines else None

    def reset_sender(self, key: tuple) -> Optional[tuple[int, list[Message]]]:
        """Fail-over: the channel's receiver died with its node.

        Rolls delivery knowledge back to the sender's own processed
        watermark — all a worker knows of a dead peer (admitted-but-
        unprocessed messages died in the lost mailboxes) — and returns
        ``(base_seq, replays)``: the new admission base the caller must
        announce to the operator's new home with a ``reset`` entry, and
        the unprocessed suffix to replay after it."""
        sender = self._senders.get(key)
        if sender is None:
            return None
        sender.rollback(sender.processed_w)
        sender.arm(self._clock())
        return sender.processed_w + 1, sender.unadmitted()

    def sender_channels_to(self, targets: set) -> list[tuple]:
        """Channel keys whose destination operator is in ``targets``."""
        return [key for key in self._senders if key[1] in targets]

    def forget_sender(self, key: tuple) -> None:
        """Drop a sender channel entirely (it collapsed to a local edge
        after a fail-over moved its receiver onto this very node)."""
        self._senders.pop(key, None)

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------

    def on_data(self, msg: Message) -> list[Message]:
        """One incoming data entry (after loss injection); returns the
        messages admitted *in order*."""
        key = (msg.sender, msg.target)
        receiver = self._receivers.get(key)
        if receiver is None:
            receiver = self._receivers[key] = ReceiverHalf()
        verdict = receiver.on_data(msg)
        if verdict & DUPLICATE:
            self._metrics.duplicates_dropped += 1
        if verdict & ACK:
            self._ack_dirty.add(key)
        admitted = []
        if verdict & ADMIT:
            while msg is not None:
                admitted.append(msg)
                msg = receiver.advance()
        return admitted

    def install_reset(self, key: tuple, base_seq: int) -> None:
        """A sender re-incarnated the channel (fail-over): admit from
        ``base_seq``, treating everything below it as processed."""
        self._receivers.setdefault(key, ReceiverHalf()).reset(base_seq)
        self._ack_dirty.add(key)

    def drop_receivers_from(self, senders: set) -> None:
        """Forget receiver state of channels whose *sender* operator died:
        the reborn sender starts a fresh sequence space."""
        for key in [k for k in self._receivers if k[0] in senders]:
            del self._receivers[key]
            self._ack_dirty.discard(key)

    def on_processed(self, msg: Message) -> None:
        """Final disposition of a message (executed or dropped)."""
        key = (msg.sender, msg.target)
        receiver = self._receivers.get(key)
        if receiver is not None:
            receiver.on_processed(msg.seq)
            self._ack_dirty.add(key)

    def drain_acks(self) -> list[tuple]:
        """Coalesced cumulative acks since the last drain: one
        ``(channel_key, admitted, processed)`` triple per dirty channel."""
        acks = []
        for key in self._ack_dirty:
            receiver = self._receivers.get(key)
            if receiver is not None:
                acks.append((key, *receiver.cumulative_ack()))
        self._ack_dirty.clear()
        return acks

    # -- introspection -------------------------------------------------

    def idle(self) -> bool:
        """Nothing outstanding, no buffered receives, no pending acks."""
        return (
            not self._ack_dirty
            and all(s.outstanding == 0 for s in self._senders.values())
            and all(not r.pending for r in self._receivers.values())
        )

    def outstanding_total(self) -> int:
        """Σ :attr:`SenderHalf.outstanding` across this worker's sender
        channels (the node sampler's retransmit-pressure sensor)."""
        return sum(s.outstanding for s in self._senders.values())
