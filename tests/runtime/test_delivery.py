"""Tests of the channel protocol core (``runtime/delivery.py``).

Two layers:

* the state machine on its own — :class:`SenderHalf` and
  :class:`ReceiverHalf` driven by hand, no clock but the ``now`` passed in;
* one property, two ports — a hypothesis schedule of sends, loss, delay
  (hence re-ordering and duplicates), ack loss and one mid-run roll-back
  runs the one driver through the kernel-timed sim port and the
  fake-clock polled mp port; both must admit ``0..n-1`` in order exactly
  once, drain their buffers, and agree on every admission, on the
  retransmission count and on the backoff time, per channel too.
"""

from __future__ import annotations

import heapq
from types import SimpleNamespace

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.dataflow.messages import Message
from repro.metrics.collectors import MetricsHub
from repro.runtime.delivery import (
    ACK,
    ADMIT,
    DUPLICATE,
    ReceiverHalf,
    SenderHalf,
    check_rto,
)
from repro.runtime.mp.reliable import MpReliableDelivery
from repro.runtime.recovery import ReliableDelivery
from repro.sim.kernel import Simulator


def _msg(seq: int = -1) -> Message:
    msg = Message(target="b", sender="a")
    msg.seq = seq
    return msg


def _sender(count: int = 0, retain: bool = False) -> SenderHalf:
    sender = SenderHalf(0.1, 0.8, retain)
    for _ in range(count):
        sender.assign(_msg())
    return sender


def _seqs(messages) -> list[int]:
    return [m.seq for m in messages]


# ---------------------------------------------------------------------------
# sender half
# ---------------------------------------------------------------------------


class TestSenderHalf:
    def test_rejects_bad_rto(self):
        with pytest.raises(ValueError):
            check_rto(0.0, 1.0)
        with pytest.raises(ValueError):
            check_rto(0.5, 0.1)

    def test_assign_numbers_and_retains(self):
        sender = _sender()
        first, second = _msg(), _msg()
        assert sender.assign(first) and sender.assign(second)
        assert (first.seq, second.seq) == (0, 1)
        assert sorted(sender.unacked) == [0, 1]
        assert sender.outstanding == 2

    def test_cumulative_ack_releases_prefix(self):
        sender = _sender(4)
        assert sender.on_ack(admitted=3, processed=1) == 2
        assert sorted(sender.unacked) == [2, 3]
        assert (sender.processed_w, sender.admitted_w) == (1, 3)
        assert sender.outstanding == 2
        # everything admitted: nothing to arm a timer for
        assert not sender.arm(0.0) and sender.deadline is None
        # a stale ack is no news
        generation = sender.generation
        assert sender.on_ack(admitted=2, processed=0) == 0
        assert sender.generation == generation

    def test_retention_caps_release_at_checkpoint_stability(self):
        sender = _sender(4, retain=True)
        assert sender.on_ack(admitted=3, processed=3) == 0
        assert sorted(sender.unacked) == [0, 1, 2, 3]
        # the one place "outstanding" and "retained" part ways
        assert sender.outstanding == 0
        assert sender.mark_stable(1) == 2
        assert sorted(sender.unacked) == [2, 3]
        assert sender.mark_stable(1) == 0  # not news
        # stability ahead of processing releases nothing early
        assert sender.mark_stable(9) == 2
        sender.assign(_msg())
        assert sorted(sender.unacked) == [4]

    def test_arm_once_then_expire_go_back_n_with_capped_backoff(self):
        sender = _sender(3)
        assert sender.arm(0.0) and sender.deadline == 0.1
        assert not sender.arm(0.05)  # already armed
        replays, stall = sender.expire(0.1)
        assert _seqs(replays) == [0, 1, 2] and stall == 0.1
        assert sender.deadline is None and sender.rto == 0.2
        assert sender.arm(0.1) and sender.deadline == pytest.approx(0.3)
        for now in (0.3, 0.7, 1.5, 2.3):
            sender.expire(now)
            sender.arm(now)
        assert sender.rto == 0.8  # capped
        assert sender.retransmit_count == 15
        assert sender.backoff_time == pytest.approx(2.3)

    def test_partial_ack_replays_only_unadmitted_suffix(self):
        sender = _sender(4)
        sender.on_ack(admitted=1, processed=1)
        sender.arm(0.0)
        assert _seqs(sender.expire(0.5)[0]) == [2, 3]

    def test_progress_supersedes_timer_and_resets_backoff(self):
        sender = _sender(2)
        sender.arm(0.0)
        sender.expire(0.1)
        sender.arm(0.1)
        generation = sender.generation
        sender.on_ack(admitted=0, processed=0)
        assert sender.generation == generation + 1
        assert sender.deadline is None and sender.rto == 0.1
        assert sender.arm(0.2)  # seq 1 is still unadmitted

    def test_expiry_with_everything_admitted_goes_idle(self):
        sender = _sender(1)
        sender.arm(0.0)
        sender.admitted_w = 0  # as an ack racing the expiry would leave it
        assert sender.expire(0.1) == ([], 0.0)
        assert sender.backoff_time == 0.0 and not sender.arm(0.1)

    def test_rollback_sets_the_admission_frontier(self):
        sender = _sender(5)
        sender.on_ack(admitted=4, processed=2)
        sender.rollback(2)  # mp: the sender's own processed watermark
        assert (sender.admitted_w, sender.processed_w) == (2, 2)
        assert _seqs(sender.unadmitted()) == [3, 4]
        # sim: the receiver's true watermark may be ahead of a sender that
        # missed acks — the announcement teaches it
        lagging = _sender(5)
        lagging.on_ack(admitted=1, processed=0)
        lagging.rollback(3)
        assert (lagging.admitted_w, lagging.processed_w) == (3, 0)
        assert _seqs(lagging.unadmitted()) == [4]

    def test_rollback_processed_only_lowers(self):
        sender = _sender(5, retain=True)
        sender.on_ack(admitted=4, processed=3)
        sender.rollback_processed(1)
        assert (sender.admitted_w, sender.processed_w) == (1, 1)
        assert _seqs(sender.unadmitted()) == [2, 3, 4]
        sender.rollback_processed(3)  # ahead of what it believes: no-op
        assert (sender.admitted_w, sender.processed_w) == (1, 1)

    def test_rewind_reuses_sequence_numbers(self):
        sender = _sender(5, retain=True)
        sender.on_ack(admitted=4, processed=4)
        sender.mark_stable(1)
        assert sender.rewind(1) == 3  # stale copies of 2, 3, 4 dropped
        assert sender.next_seq == 1 and not sender.unacked
        again = _msg()
        assert not sender.assign(again)  # seq 1 is checkpoint-covered
        assert again.seq == 1
        assert sender.assign(_msg()) and sorted(sender.unacked) == [2]
        assert sender.rewind(7) == 0  # never forwards


# ---------------------------------------------------------------------------
# receiver half
# ---------------------------------------------------------------------------


def _arrive(receiver: ReceiverHalf, seq: int, on_admit=None):
    """One arrival the way a driver takes it: classify, hand over, advance.
    Returns ``(verdict, admitted sequences)``."""
    msg = _msg(seq)
    verdict = receiver.on_data(msg)
    admitted = []
    if verdict & ADMIT:
        while msg is not None:
            admitted.append(msg.seq)
            if on_admit is not None:
                on_admit(msg.seq)
            msg = receiver.advance()
    return verdict, admitted


class TestReceiverHalf:
    def test_in_order_admission_and_cumulative_ack(self):
        receiver = ReceiverHalf()
        assert _arrive(receiver, 0) == (ADMIT | ACK, [0])
        assert _arrive(receiver, 1) == (ADMIT | ACK, [1])
        receiver.on_processed(0)
        assert receiver.cumulative_ack() == (1, 0)

    def test_out_of_order_buffered_until_gap_fills(self):
        receiver = ReceiverHalf()
        assert _arrive(receiver, 2) == (0, [])
        assert _arrive(receiver, 1) == (0, [])
        assert _arrive(receiver, 0) == (ADMIT | ACK, [0, 1, 2])
        assert not receiver.pending

    def test_frontier_moves_only_behind_each_hand_over(self):
        """A mailbox that processes on admission acks mid-batch: no such
        ack may claim a message not yet handed over, or a sender that sees
        only that ack stops retransmitting a message it still buffers."""
        receiver = ReceiverHalf()
        _arrive(receiver, 1)
        acks = []

        def process(seq):
            receiver.on_processed(seq)
            acks.append(receiver.cumulative_ack())

        _arrive(receiver, 0, on_admit=process)
        acks.append(receiver.cumulative_ack())  # the arrival's own ack
        assert acks == [(-1, 0), (0, 1), (1, 1)]
        for admitted, processed in acks:
            sender = _sender(2)
            sender.on_ack(admitted, processed)
            # whichever single ack survives, the sender either learned
            # all was processed or keeps the timer alive
            assert sender.outstanding == 0 or sender.arm(0.0)

    def test_duplicates_are_classified(self):
        receiver = ReceiverHalf()
        _arrive(receiver, 0)
        # still in the mailbox: dropped, and no ack (nothing changed)
        assert _arrive(receiver, 0) == (DUPLICATE, [])
        receiver.on_processed(0)
        # processed: dropped, and the sender's view is refreshed
        assert _arrive(receiver, 0) == (DUPLICATE | ACK, [])

    def test_out_of_order_processing_folds_into_watermark(self):
        receiver = ReceiverHalf()
        for seq in range(3):
            _arrive(receiver, seq)
        receiver.on_processed(2)
        assert receiver.cumulative_ack() == (2, -1) and receiver.processed == {2}
        assert _arrive(receiver, 2) == (DUPLICATE | ACK, [])
        receiver.on_processed(0)
        receiver.on_processed(1)
        assert receiver.cumulative_ack() == (2, 2) and not receiver.processed

    def test_reset_after_crash_skips_what_was_processed(self):
        receiver = ReceiverHalf()
        for seq in range(4):
            _arrive(receiver, seq)
        _arrive(receiver, 5)  # buffered behind the gap at 4
        receiver.on_processed(0)
        receiver.on_processed(2)
        # crash: the mailbox (1, 3) and the buffer (5) died; 2 did not
        receiver.reset(receiver.watermark + 1, receiver.processed)
        assert receiver.cumulative_ack() == (0, 0) and not receiver.pending
        assert _arrive(receiver, 1)[1] == [1]
        assert receiver.next_admit == 3  # 2 was skipped, never re-admitted
        assert _arrive(receiver, 2) == (DUPLICATE | ACK, [])

    def test_reset_to_checkpoint_frontier(self):
        receiver = ReceiverHalf()
        for seq in range(4):
            _arrive(receiver, seq)
            receiver.on_processed(seq)
        receiver.reset(2, frozenset({3}))  # snapshot held 0, 1 and 3
        assert receiver.cumulative_ack() == (1, 1)
        assert _arrive(receiver, 2)[1] == [2]
        assert receiver.next_admit == 4

    def test_reset_forward_to_a_reborn_senders_base(self):
        receiver = ReceiverHalf()
        _arrive(receiver, 0)
        receiver.reset(5)
        assert _arrive(receiver, 4) == (DUPLICATE | ACK, [])  # below base
        assert _arrive(receiver, 5)[1] == [5]


# ---------------------------------------------------------------------------
# one property, one driver, two ports
# ---------------------------------------------------------------------------

#: every instant of a schedule is a dyadic rational, so both drivers compute
#: bit-equal times: scripted actions sit on a grid of G, transits are a few
#: ticks of U (G/1024) so network events never land on the grid
G = 1.0 / 64
U = G / 1024
DATA_TRANSIT = 3 * U
ACK_TRANSIT = 2 * U
RTO = 4 * G + 7 * U
RTO_CAP = 8 * RTO
MAX_EXTRA = 5 * G
SENDER, TARGET = ("job", "src", 0), ("job", "dst", 0)
KEY = (SENDER, TARGET)


class _Schedule:
    """What the medium does when, as a function of the send instant only —
    so it means the same to a driver that acks three times per arrival
    (sim) and one that coalesces (mp)."""

    def __init__(self, count, data_loss, ack_loss, delays, rollback_cell):
        self.send_times = [i * G for i in range(count)]
        self.data_loss = [(a * G, (a + n) * G) for a, n in data_loss]
        self.ack_loss = [(a * G, (a + n) * G) for a, n in ack_loss]
        self.delays = [(a * G, (a + n) * G, extra * G) for a, n, extra in delays]
        self.rollback_at = None
        self.script_times = set(self.send_times)
        if rollback_cell is not None:
            # between two grid points, so never at a send instant.  The
            # receiver's last acks died with it, and so does anything put
            # on the wire at the very instant of its rebirth (the mp
            # transport's eager replay, which the sim driver does not have)
            at = self.rollback_at = (rollback_cell + 0.5) * G
            self.ack_loss.append((at - MAX_EXTRA - G, at + U))
            self.data_loss.append((at, at + U))
            self.script_times.add(at)

    def loses_data(self, now: float) -> bool:
        return any(start <= now < end for start, end in self.data_loss)

    def loses_ack(self, now: float) -> bool:
        return any(start <= now < end for start, end in self.ack_loss)

    def extra(self, now: float) -> float:
        return sum(e for start, end, e in self.delays if start <= now < end)


_windows = st.lists(
    st.tuples(st.integers(0, 24), st.integers(1, 8)), max_size=3)
_schedules = st.builds(
    _Schedule,
    count=st.integers(1, 12),
    data_loss=_windows,
    ack_loss=_windows,
    delays=st.lists(
        st.tuples(st.integers(0, 16), st.integers(1, 6), st.sampled_from([2, 5])),
        max_size=2),
    rollback_cell=st.one_of(st.none(), st.integers(0, 20)),
)


class _Run:
    """What a driver did with a schedule."""

    def __init__(self):
        self.state: list[int] = []     # effects alive in the receiver's state
        self.admissions: list[int] = []  # every admission, in order
        self.retransmissions = 0
        self.backoff_time = 0.0
        self.backoff_by_channel: dict = {}
        self.drained = False

    def admit(self, seq: int) -> None:
        self.state.append(seq)
        self.admissions.append(seq)

    def roll_back(self, frontier: int) -> None:
        """The receiver lost every effect beyond ``frontier``."""
        self.state = [seq for seq in self.state if seq <= frontier]

    def count(self, metrics, sender_driver) -> None:
        """What the driver counted: once, whichever port it served."""
        self.retransmissions = metrics.retransmissions
        self.backoff_time = metrics.retransmit_backoff_time
        self.backoff_by_channel = sender_driver.backoff_by_channel()


def _run_sim(schedule: _Schedule) -> _Run:
    """The schedule through :class:`ReliableDelivery` on a real kernel."""
    sim = Simulator()
    metrics = MetricsHub()
    run = _Run()
    # the injector, the delay model and the channel clamp are the three
    # places the sim driver asks what the network does
    net = SimpleNamespace(
        severs=lambda src, dst: False,
        inflate_transit=lambda delay: delay + schedule.extra(sim.now),
        drops_message=lambda src, dst: schedule.loses_data(sim.now),
        drops_ack=lambda src, dst: schedule.loses_ack(sim.now),
        delay=lambda src, dst: DATA_TRANSIT if src == 0 else ACK_TRANSIT,
        deliver_time=lambda now, transit: now + transit,  # may re-order
    )
    reliable = ReliableDelivery(sim, metrics, net, net, lambda node: False,
                                rto=RTO, rto_cap=RTO_CAP)
    src = SimpleNamespace(node_id=0, address=SENDER)
    dst = SimpleNamespace(node_id=1, address=TARGET)

    def admit(op_rt, msg, route):
        run.admit(msg.seq)
        reliable.on_processed(op_rt, msg)  # instant processing

    def roll_back():
        for _sender_key, ch in reliable.channels_into(dst):
            frontier = ch.sender.processed_w
            run.roll_back(frontier)
            reliable.rollback_receiver(dst, {SENDER: (frontier, frozenset())})

    reliable.attach(admit)
    for at in schedule.send_times:
        sim.schedule_at(at, reliable.send, src, dst, net,
                        Message(target=TARGET, sender=SENDER))
    if schedule.rollback_at is not None:
        sim.schedule_at(schedule.rollback_at, roll_back)
    sim.run(until=4096 * G)
    run.count(metrics, reliable)
    run.drained = reliable.unacked_total() == 0 == reliable.outstanding_total()
    return run


def _run_mp(schedule: _Schedule) -> _Run:
    """The schedule through two :class:`MpReliableDelivery` ports (the
    producing and the consuming worker) on a fake clock, polled the way a
    worker's dispatch loop polls: frames in, due timers, outbox and acks
    out."""
    clock = SimpleNamespace(now=0.0)
    metrics = MetricsHub()
    producer = MpReliableDelivery(clock, RTO, RTO_CAP, metrics)
    consumer = MpReliableDelivery(clock, RTO, RTO_CAP, metrics)
    run = _Run()
    ops = {TARGET: SimpleNamespace(node_id=1, address=TARGET)}
    outbox: list[tuple] = []  # the producer's entries for node 1
    producer.bind(ops, lambda node: outbox, None)

    def admit(op_rt, msg, route):
        run.admit(msg.seq)
        consumer.on_processed(op_rt, msg)  # instant processing

    consumer.bind(ops, None, admit)
    wire: list[tuple] = []  # (arrival, order, kind, payload)
    order = iter(range(10**9))

    def flush():
        """Both workers' pending entries go on the wire now."""
        for _tag, msg in outbox:
            if not schedule.loses_data(clock.now):
                arrival = clock.now + (DATA_TRANSIT + schedule.extra(clock.now))
                heapq.heappush(wire, (arrival, next(order), "data", msg))
        outbox.clear()
        for ack in consumer.drain_acks():
            if not schedule.loses_ack(clock.now):
                arrival = clock.now + (ACK_TRANSIT + schedule.extra(clock.now))
                heapq.heappush(wire, (arrival, next(order), "ack", ack))

    for at in schedule.send_times:
        heapq.heappush(wire, (at, next(order), "send", None))
    if schedule.rollback_at is not None:
        heapq.heappush(wire, (schedule.rollback_at, next(order), "rollback", None))

    for _ in range(100_000):
        deadline = producer.next_deadline()
        if not wire and deadline is None:
            break
        if wire and (deadline is None or wire[0][0] <= deadline):
            at, _, kind, payload = heapq.heappop(wire)
            if kind == "ack" and (at == deadline or at in schedule.script_times):
                # the kernel orders same-instant events by when they were
                # scheduled, a poll loop by its own fixed order: an ack
                # that ties with a timer or a send is not one schedule
                reject()
            clock.now = at
            if kind == "send":
                producer.send(Message(target=TARGET, sender=SENDER))
            elif kind == "data":
                consumer.on_data(payload)
            elif kind == "ack":
                producer.on_ack(*payload)
            else:
                base_seq, replays = producer.reset_sender(KEY)
                run.roll_back(base_seq - 1)
                consumer.install_reset(KEY, base_seq)
                outbox.extend(("msg", msg) for msg in replays)
        else:
            clock.now = deadline
            producer.due(deadline)
        flush()
    else:  # pragma: no cover - a schedule that never quiesces
        raise AssertionError("mp driver did not quiesce")
    run.count(metrics, producer)
    run.drained = producer.idle() and consumer.idle()
    return run


@settings(max_examples=150, deadline=None)
@given(schedule=_schedules)
def test_one_schedule_two_drivers(schedule):
    """Per-channel FIFO and exactly-once (§4.3) on both backends, and the
    one driver agrees move for move through either port: admissions,
    retransmissions and backoff time, in total and per channel."""
    expected = list(range(len(schedule.send_times)))
    mp = _run_mp(schedule)  # first: it is the one that can reject a tie
    sim = _run_sim(schedule)
    for run in (sim, mp):
        assert run.state == expected  # complete, in order, exactly once
        assert run.drained
    assert sim.admissions == mp.admissions
    assert sim.retransmissions == mp.retransmissions
    assert sim.backoff_time == mp.backoff_time
    assert sim.backoff_by_channel == mp.backoff_by_channel
