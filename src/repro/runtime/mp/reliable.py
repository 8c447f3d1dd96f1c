"""The wall-clock port of the channel driver for the process backend.

The protocol and its driver — sequence numbers, cumulative ``(admitted,
processed)`` acks, in-order admission, duplicate suppression, go-back-N
under capped exponential backoff, and its counting — are
:mod:`repro.runtime.delivery`, shared with the simulated
:class:`~repro.runtime.recovery.ReliableDelivery`.  On this backend a
channel is split across processes: its sender half works in the
producing worker, its receiver half in the consuming worker, and the two
exchange information only through ``DATA`` frame entries.  A channel is
``(msg.sender, msg.target)``, the key the simulated port uses.

What is wall-clock here is the port: :meth:`~MpReliableDelivery.transmit`
appends the entry to the transport's outbox for the destination node;
:meth:`~MpReliableDelivery.ack` marks the channel for the cumulative ack
the next flush carries (:meth:`~MpReliableDelivery.drain_acks` coalesces
them per channel); :meth:`~MpReliableDelivery.arm` does nothing, because
a worker has no event heap — its loop calls :meth:`~MpReliableDelivery.
due` every turn, which runs the driver's one ``on_timer`` for every
channel whose deadline has passed, and bounds its idle wait by
:meth:`~MpReliableDelivery.next_deadline`.  Fail-over re-keys channels
when the coordinator announces a re-placement.  A pipe never drops an
ack entry, so ``acks_lost`` reads 0 on this backend by design.
In-order admission is structural in the receiver half; the run-time
check that it held end to end is the transport's admission audit
(``ProcessTransport.fifo_violations``).  Loss injection happens in the
transport, before :meth:`~MpReliableDelivery.on_data`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.dataflow.messages import Message
from repro.runtime.delivery import Channel, ReliableDriver


class MpReliableDelivery(ReliableDriver):
    """Both ends of every reliable channel one worker participates in."""

    def __init__(self, clock, rto: float, rto_cap: float, metrics):
        super().__init__(clock, metrics, rto, rto_cap)
        #: channels whose cumulative ack changed since the last drain
        self._ack_dirty: dict[tuple, Channel] = {}
        self._ops: dict = {}
        self._outbox: Optional[Callable[[int], list]] = None

    def bind(self, ops: dict, outbox: Callable[[int], list], admit) -> None:
        """Wire the port to its transport: the address -> runtime map a
        channel resolves its destination in, the per-node outbox lookup
        and the admission callback."""
        self._ops = ops
        self._outbox = outbox
        self.attach(admit)

    # -- the port ------------------------------------------------------

    def transmit(self, ch: Channel, msg: Message) -> None:
        self._outbox(ch.dst_rt.node_id).append(("msg", msg))

    def ack(self, ch: Channel) -> None:
        self._ack_dirty[ch.key] = ch

    def arm(self, ch: Channel) -> None:
        """Nothing to schedule: :meth:`due` polls the deadline."""

    def due(self, now: float) -> None:
        """Run the timer of every armed channel whose deadline has passed."""
        for ch in self._channels.values():
            deadline = ch.sender.deadline
            if deadline is not None and deadline <= now:
                self.on_timer(ch, ch.sender.generation)

    def next_deadline(self) -> Optional[float]:
        """Earliest armed retransmit instant (bounds the idle wait)."""
        return min((ch.sender.deadline for ch in self._channels.values()
                    if ch.sender.deadline is not None), default=None)

    # -- entry points --------------------------------------------------

    def send(self, msg: Message) -> None:
        """A freshly built message to a remote operator."""
        key = (msg.sender, msg.target)
        ch = self._channels.get(key) or self._open(key, None, self._ops[key[1]])
        self._send(ch, msg)

    def on_ack(self, key: tuple, admitted: int, processed: int) -> None:
        ch = self._channels.get(key)
        if ch is not None:
            self._on_ack(ch, admitted, processed)

    def on_data(self, msg: Message) -> None:
        """One incoming data entry (after loss injection); in-order
        admissions go through the admission callback."""
        key = (msg.sender, msg.target)
        ch = self._channels.get(key) or self._open(key, None, self._ops[key[1]])
        self._receive(ch, msg)

    def drain_acks(self) -> list[tuple]:
        """Coalesced cumulative acks since the last drain: one
        ``(channel_key, admitted, processed)`` triple per dirty channel."""
        acks = [(key, *ch.receiver.cumulative_ack())
                for key, ch in self._ack_dirty.items()]
        self._ack_dirty.clear()
        return acks

    # -- fail-over re-keying -------------------------------------------

    def reset_sender(self, key: tuple) -> Optional[tuple[int, list[Message]]]:
        """Fail-over: the channel's receiver died with its node.

        Rolls delivery knowledge back to the sender's own processed
        watermark — all a worker knows of a dead peer (admitted-but-
        unprocessed messages died in the lost mailboxes) — and returns
        ``(base_seq, replays)``: the new admission base the caller must
        announce to the operator's new home with a ``reset`` entry, and
        the unprocessed suffix to replay after it."""
        ch = self._channels.get(key)
        if ch is None:
            return None
        sender = ch.sender
        sender.rollback(sender.processed_w)
        self._arm(ch)
        return sender.processed_w + 1, sender.unadmitted()

    def sender_channels_to(self, targets: set) -> list[tuple]:
        """Channel keys whose destination operator is in ``targets``."""
        return [key for key in self._channels if key[1] in targets]

    def forget_sender(self, key: tuple) -> None:
        """Drop a sender channel entirely (it collapsed to a local edge
        after a fail-over moved its receiver onto this very node)."""
        self._channels.pop(key, None)

    def install_reset(self, key: tuple, base_seq: int) -> None:
        """A sender re-incarnated the channel (fail-over): admit from
        ``base_seq``, treating everything below it as processed."""
        ch = self._channels.get(key) or self._open(key, None, self._ops[key[1]])
        ch.receiver.reset(base_seq)
        self.ack(ch)

    def drop_receivers_from(self, senders: set) -> None:
        """Forget receiver state of channels whose *sender* operator died:
        the reborn sender starts a fresh sequence space."""
        for key in [k for k in self._channels if k[0] in senders]:
            del self._channels[key]
            self._ack_dirty.pop(key, None)

    def idle(self) -> bool:
        """Nothing outstanding, no buffered receives, no pending acks."""
        return not self._ack_dirty and all(
            ch.sender.outstanding == 0 and not ch.receiver.pending
            for ch in self._channels.values())
