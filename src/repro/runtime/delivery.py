"""The reliable-channel protocol: one sans-IO core and one driver for both
backends.

A channel carries messages from one sender to one receiver in per-channel
FIFO order (§4.3) over a medium that may lose, duplicate, delay or
re-order them: go-back-N with cumulative ``(admitted, processed)`` acks
and capped exponential backoff.  :class:`SenderHalf` and
:class:`ReceiverHalf` are its only implementation — pure state machines
that take ``now`` and an input and return what to do, and never touch a
kernel, a pipe, a metrics hub or an RNG.

:class:`ReliableDriver` is the only code that runs them: one channel
table, and the one copy of send, timer expiry, ack arrival, data arrival
and the counting (retransmissions, backoff time, duplicates, the tracer's
retransmit hooks).  What differs per backend is the medium, so a backend
subclasses the driver as a **port** of three methods — ``transmit(ch,
msg)`` puts a frame on the wire, ``ack(ch)`` sends the receiver's
cumulative ack back, ``arm(ch)`` waits ``rto`` seconds and then calls
:meth:`ReliableDriver.on_timer` — and resolves channels in its own entry
points.  The ports are :class:`repro.runtime.recovery.ReliableDelivery`
(kernel events) and :class:`repro.runtime.mp.reliable.MpReliableDelivery`
(a polled wall clock); the driver never asks which one it serves.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.dataflow.messages import Message
from repro.runtime.topology import _format_address

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


class Channel:
    """One reliable channel: both protocol halves and the port's endpoint
    data — the runtimes at either end (``src_rt`` None: an ingestion client,
    or unused) and the sim's per-channel order clamp (``link``).  The sim
    runs both halves; an mp worker the half of its own end."""

    __slots__ = ("key", "sender", "receiver", "src_rt", "dst_rt", "link")

    def __init__(self, key: tuple, sender: SenderHalf, src_rt, dst_rt, link):
        self.key = key
        self.sender = sender
        self.receiver = ReceiverHalf()
        self.src_rt = src_rt
        self.dst_rt = dst_rt
        self.link = link

    @property
    def src_node(self) -> int:
        # clients are remote machines (node id -1 never matches a node)
        return self.src_rt.node_id if self.src_rt is not None else -1


class ReliableDriver:
    """Every channel of one driver, keyed ``(sender, target)``.

    ``clock`` is read as ``clock.now``.  A subclass is the port:
    ``transmit(ch, msg)`` puts one frame of ``msg`` on the wire (it may be
    lost there), ``ack(ch)`` sends ``ch.receiver``'s cumulative ack back,
    ``arm(ch)`` calls :meth:`on_timer` with ``ch.sender.generation`` once
    ``ch.sender.deadline`` has passed; and its entry points resolve a
    channel and call :meth:`_send`, :meth:`_on_ack` and :meth:`_receive`."""

    def __init__(self, clock, metrics, rto: float, rto_cap: float):
        check_rto(rto, rto_cap)
        self._clock = clock
        self._metrics = metrics
        self._rto = rto
        self._rto_cap = rto_cap
        self._channels: dict[tuple, Channel] = {}
        self._admit: Optional[Callable] = None
        #: span recorder (None = tracing off: zero hot-path residue)
        self._tracer = None
        self._retain = False
        self._unacked_count = 0
        #: high-water mark of retransmit-buffer occupancy across the run
        self.unacked_peak = 0

    # -- wiring --------------------------------------------------------

    def attach(self, admit: Callable) -> None:
        """Bind the admission callback ``admit(dst_rt, msg, None)`` (the
        transport's delivery body)."""
        self._admit = admit

    def attach_tracer(self, tracer) -> None:
        """Install the span recorder (``record_trace`` runs only)."""
        self._tracer = tracer

    def _open(self, key: tuple, src_rt, dst_rt, link=None) -> Channel:
        ch = self._channels[key] = Channel(
            key, SenderHalf(self._rto, self._rto_cap, self._retain),
            src_rt, dst_rt, link)
        return ch

    # -- the protocol, once --------------------------------------------

    def _send(self, ch: Channel, msg: Message) -> None:
        """A freshly built message: number, retain, transmit, arm."""
        if ch.sender.assign(msg):
            self._unacked_count += 1
            if self._unacked_count > self.unacked_peak:
                self.unacked_peak = self._unacked_count
        if self._tracer is not None:
            # a wire attempt regardless of loss: the span's next
            # retransmit gap is measured from this instant
            self._tracer.on_transmit(msg, self._clock.now)
        self.transmit(ch, msg)
        self._arm(ch)

    def _arm(self, ch: Channel) -> None:
        """Arm the timer if idle and needed — after the frames are on the
        wire, so on sim it follows their arrivals in same-instant order.
        An armed timer costs no clock read (a wall-clock read on mp)."""
        sender = ch.sender
        if sender.deadline is None and sender.arm(self._clock.now):
            self.arm(ch)

    def on_timer(self, ch: Channel, generation: int) -> None:
        """The timer armed under ``generation`` ran out: go back N."""
        sender = ch.sender
        if generation != sender.generation:
            return  # superseded by an ack or a roll-back
        now = self._clock.now
        replays, stall = sender.expire(now)
        # the channel sat on this timer the whole arming-to-expiry stall:
        # charge the backoff *time* (not just a count) so attribution can
        # blame recovery delay on the right channel
        metrics = self._metrics
        metrics.retransmit_backoff_time += stall
        tracer = self._tracer
        for msg in replays:
            metrics.retransmissions += 1
            if tracer is not None:
                # stall since the last wire attempt, then the replay
                # itself becomes the new last attempt
                tracer.on_retransmit(msg, now)
                tracer.on_transmit(msg, now)
            self.transmit(ch, msg)
        self._arm(ch)

    def _on_ack(self, ch: Channel, admitted: int, processed: int) -> None:
        """The sender learns of receiver progress."""
        self._unacked_count -= ch.sender.on_ack(admitted, processed)
        self._arm(ch)

    def _receive(self, ch: Channel, msg: Message) -> None:
        """One data frame reached the receiver: drop, buffer or admit in
        order through the admission callback, then ack if due."""
        receiver = ch.receiver
        verdict = receiver.on_data(msg)
        if verdict & DUPLICATE:
            self._metrics.duplicates_dropped += 1
        if verdict & ADMIT:
            admit, dst_rt = self._admit, ch.dst_rt
            while msg is not None:
                admit(dst_rt, msg, None)
                msg = receiver.advance()
        if verdict & ACK:
            self.ack(ch)

    def on_processed(self, op_rt, msg: Message) -> None:
        """Final disposition of a message (executed or shed)."""
        ch = self._channels.get((msg.sender, op_rt.address))
        if ch is not None:
            ch.receiver.on_processed(msg.seq)
            self.ack(ch)

    # -- introspection -------------------------------------------------

    def unacked_total(self) -> int:
        """Messages retained in retransmit buffers (replay sources under a
        retention mode included)."""
        return sum(len(ch.sender.unacked) for ch in self._channels.values())

    def outstanding_total(self, src_node: Optional[int] = None) -> int:
        """Σ :attr:`SenderHalf.outstanding` — the live backlog, zero at
        quiescence even when retention keeps replay copies — over every
        channel, or over those sending from ``src_node``."""
        return sum(ch.sender.outstanding for ch in self._channels.values()
                   if src_node is None or ch.src_node == src_node)

    def backoff_by_channel(self) -> dict[str, dict]:
        """Per-channel retransmit accounting, for channels that backed off.

        Keys are ``"sender -> receiver"`` labels; values carry the total
        seconds spent stalled on retransmit timers (``backoff_time``) and
        the go-back-N replay count — the per-channel decomposition of
        ``MetricsHub.retransmit_backoff_time``."""
        report: dict[str, dict] = {}
        for (sender_key, dst), ch in self._channels.items():
            sender = ch.sender
            if sender.backoff_time == 0.0 and sender.retransmit_count == 0:
                continue
            label = f"{_format_address(sender_key)} -> {_format_address(dst)}"
            report[label] = {
                "backoff_time": sender.backoff_time,
                "retransmissions": sender.retransmit_count,
            }
        return report
