"""Unit tests for the mp backend's wire layer.

Frames round-trip over a *real* socket pair wrapped in pipe ends (the
exact transport the workers use), and the wall-clock port of the
channel driver is driven directly with a fake clock: per-channel keying,
outboxes, deadline polling, ack coalescing and channel reset after
fail-over.  Loss injection, which sits in front of the driver, is driven
through an in-process worker.
"""

from __future__ import annotations

import pickle
import selectors
import socket
import time
from selectors import EVENT_READ, EVENT_WRITE
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.context import PriorityContext
from repro.dataflow.events import EventBatch
from repro.dataflow.messages import Message
from repro.dataflow.operators import OpAddress
from repro.metrics.collectors import MetricsHub
from repro.core.context import ReplyContext
from repro.runtime.config import EngineConfig
from repro.runtime.mp.frames import (
    _PC,
    DATA_MAGIC,
    START,
    STOP,
    DataCodec,
    PipeEnd,
    recv_frame,
    send_frame,
)
from repro.runtime.mp.reliable import MpReliableDelivery
from repro.runtime.mp.worker import MpWorker
from repro.sim.faults import ChannelLoss, FaultSchedule
from repro.workloads.tenants import make_bulk_analytics_job


def _message(sender="a", target="b", seq=-1, tuples=4) -> Message:
    batch = EventBatch(
        np.arange(tuples, dtype=np.float64),
        np.ones(tuples),
        np.arange(tuples),
        arrival_time=0.5,
        source_id=0,
        times_sorted=True,
    )
    msg = Message(
        target=target, batch=batch, p=3.0, t=0.5, deps_arrival=0.5,
        sender=sender,
        pc=PriorityContext(pri_local=1.0, pri_global=2.0, deadline=2.5),
        channel_index=0,
    )
    msg.seq = seq
    return msg


def _pipe() -> tuple[PipeEnd, PipeEnd]:
    """Both ends of one mesh pipe, as the workers and coordinator hold them."""
    left, right = socket.socketpair()
    return PipeEnd(left), PipeEnd(right)


class TestFrames:
    def test_round_trip_over_real_pipe(self):
        parent, child = _pipe()
        try:
            send_frame(parent, START, 123.25)
            kind, payload = recv_frame(child)
            assert kind == START and payload == 123.25

            msg = _message(
                sender=OpAddress("j", "src", 0), target=OpAddress("j", "agg", 1),
                seq=7,
            )
            entries = [
                ("msg", msg),
                ("ack", (OpAddress("j", "src", 0), OpAddress("j", "agg", 1)), 4, 2),
                ("reset", ("x", "y"), 9),
            ]
            child.queue(DataCodec().encode_data(entries))
            child.write_all()
            received = DataCodec().decode_data(parent.recv())
            got = received[0][1]
            assert got.seq == 7
            assert got.target == OpAddress("j", "agg", 1)
            assert got.pc.pri_local == 1.0
            np.testing.assert_array_equal(
                got.batch.logical_times, msg.batch.logical_times
            )
            assert received[1] == entries[1]
            assert received[2] == entries[2]
        finally:
            parent.close()
            child.close()

    def test_partial_writes_resume_and_reads_yield_whole_frames(self):
        """A frame far larger than the socket buffer leaves in pieces
        without blocking, the reader cuts nothing off until it is whole,
        and the end wants write readiness exactly while bytes wait."""
        parent, child = _pipe()
        selector = selectors.DefaultSelector()
        try:
            child.watch(selector)
            big = bytes(range(256)) * (16 << 10)  # 4 MiB
            child.queue(big)
            child.put(STOP)
            assert child.write()
            assert 0 < child.unsent < len(big)
            assert selector.get_key(child.sock).events == EVENT_READ | EVENT_WRITE
            received = []
            while child.unsent or len(received) < 2:
                assert parent.fill()
                while (body := parent.frame()) is not None:
                    received.append(body)
                assert child.write()
            assert received[0] == big
            assert pickle.loads(received[1]) == (STOP, None)
            assert selector.get_key(child.sock).events == EVENT_READ
        finally:
            parent.close()
            child.close()
            selector.close()

    def test_closed_peer_reads_as_eof_and_refuses_writes(self):
        parent, child = _pipe()
        try:
            child.close()
            assert not parent.fill()
            with pytest.raises(EOFError):
                recv_frame(parent)
            parent.put(STOP)
            assert not parent.write()
        finally:
            parent.close()


class TestDataCodec:
    """The struct-packed binary encoding of the DATA fast path.

    One sender-side codec per destination, one receiver-side codec per
    source: the sender assigns interning ids and ships pickled DEF
    records inline before first use, so a FIFO pipe guarantees the
    receiver always has the definition by the time an id references it.
    """

    def _entries(self):
        msg = _message(
            sender=OpAddress("j", "src", 0), target=OpAddress("j", "agg", 1),
            seq=7,
        )
        key = (OpAddress("j", "src", 0), OpAddress("j", "agg", 1))
        return [
            ("msg", msg),
            ("ack", key, 4, 2),
            ("reply", OpAddress("j", "src", 0), "agg",
             ReplyContext(c_m=0.25, c_path=0.5, queueing_delay=0.125,
                          mailbox_size=3)),
            ("reset", key, 9),
        ]

    def test_magic_byte_distinguishes_binary_from_pickle(self):
        buf = DataCodec().encode_data(self._entries())
        assert buf[:1] == DATA_MAGIC
        # pickle streams start with the protocol opcode 0x80 — the
        # receiver's one-byte sniff can never confuse the two
        assert DATA_MAGIC != b"\x80"

    def test_full_round_trip(self):
        sender, receiver = DataCodec(), DataCodec()
        entries = self._entries()
        got = receiver.decode_data(sender.encode_data(entries))
        assert [e[0] for e in got] == ["msg", "ack", "reply", "reset"]

        original = entries[0][1]
        msg = got[0][1]
        assert msg.target == original.target
        assert msg.sender == original.sender
        assert (msg.seq, msg.channel_index, msg.msg_id) == (7, 0, original.msg_id)
        assert (msg.p, msg.t, msg.deps_arrival) == (3.0, 0.5, 0.5)
        assert msg.pc == original.pc  # the whole PC: three f64s
        assert _PC.size == 24
        np.testing.assert_array_equal(
            msg.batch.logical_times, original.batch.logical_times
        )
        np.testing.assert_array_equal(msg.batch.values, original.batch.values)
        np.testing.assert_array_equal(msg.batch.keys, original.batch.keys)
        assert msg.batch.times_sorted and msg.batch.arrival_time == 0.5

        assert got[1] == entries[1]
        _, sender_addr, stage, rc = got[2]
        assert (sender_addr, stage) == (entries[2][1], "agg")
        assert (rc.c_m, rc.c_path, rc.queueing_delay, rc.mailbox_size) == (
            0.25, 0.5, 0.125, 3
        )
        assert got[3] == entries[3]

    def test_interning_amortises_definitions(self):
        sender, receiver = DataCodec(), DataCodec()
        first = sender.encode_data(self._entries())
        second = sender.encode_data(self._entries())
        # the second frame reuses ids: no pickled DEF records at all
        assert len(second) < len(first)
        a = receiver.decode_data(first)
        b = receiver.decode_data(second)
        assert a[0][1].target == b[0][1].target
        assert a[1] == b[1]

    def test_slow_path_falls_back_to_pickle(self):
        sender, receiver = DataCodec(), DataCodec()
        odd_msg = _message(seq=3)
        odd_msg.batch = None  # no batch: not fast-path
        got = receiver.decode_data(sender.encode_data([("msg", odd_msg)]))
        assert got[0][1].batch is None
        assert got[0][1].pc == odd_msg.pc
        assert got[0][1].seq == 3
        # Unknown tags take the RAW pickle path and round-trip verbatim.
        exotic = ("weird", {"payload": 1})
        assert receiver.decode_data(sender.encode_data([exotic])) == [exotic]

    def test_decode_rejects_foreign_buffers(self):
        with pytest.raises(ValueError, match="binary DATA"):
            DataCodec().decode_data(b"\x80\x05junk")


class _Port:
    """One :class:`MpReliableDelivery` on a fake clock (``now``), bound to
    fake operators ``b``/``c``/``z`` on nodes 1/2/3, per-node outboxes and
    an admission log — everything a worker's transport gives it."""

    def __init__(self):
        self.now = 0.0
        self.metrics = MetricsHub()
        self.outboxes: dict[int, list] = {}
        self.admitted: list[int] = []
        self.ops = {name: SimpleNamespace(address=name, node_id=node)
                    for name, node in (("b", 1), ("c", 2), ("z", 3))}
        self.reliable = MpReliableDelivery(self, rto=0.1, rto_cap=0.8,
                                           metrics=self.metrics)
        self.reliable.bind(
            self.ops, lambda node: self.outboxes.setdefault(node, []),
            lambda op_rt, msg, _route: self.admitted.append(msg.seq))

    def send(self, target: str) -> Message:
        msg = _message("a", target)
        self.reliable.send(msg)
        return msg

    def wire(self) -> list[tuple]:
        """``(target, seq)`` of every data entry put on the wire since the
        last call."""
        sent = [(entry[1].target, entry[1].seq)
                for outbox in self.outboxes.values() for entry in outbox]
        self.outboxes.clear()
        return sent

    def receive(self, seq: int) -> list[int]:
        """Seqs admitted by one arriving ``a -> b`` entry."""
        self.admitted.clear()
        self.reliable.on_data(_message("a", "b", seq=seq))
        return list(self.admitted)


@pytest.fixture()
def port():
    return _Port()


class TestMpDriver:
    """What is wall-clock in :class:`MpReliableDelivery`: channel keying,
    deadline polling, ack coalescing and the fail-over re-keying, plus
    the loss injection in front of it.  The protocol and the driver it
    ports are tested in ``test_delivery.py``."""

    def test_sequences_are_per_channel(self, port):
        assert port.send("b").seq == 0
        assert port.send("b").seq == 1
        assert port.send("c").seq == 0
        assert port.wire() == [("b", 0), ("b", 1), ("c", 0)]  # per node outbox
        assert port.outboxes == {}

    def test_timers_are_polled_per_channel(self, port):
        reliable, metrics = port.reliable, port.metrics
        port.send("b")
        port.now = 0.04
        port.send("c")
        port.wire()
        assert reliable.next_deadline() == 0.1  # the earliest armed channel
        port.now = 0.05
        reliable.due(0.05)
        assert port.wire() == []  # nothing due yet
        port.now = 0.11
        reliable.due(0.11)
        assert port.wire() == [("b", 0)]  # only a->b is due
        assert metrics.retransmissions == 1
        assert metrics.retransmit_backoff_time == pytest.approx(0.11)
        # a->b backed off to 0.11 + 0.2; a->c still waits for 0.04 + 0.1
        assert reliable.next_deadline() == pytest.approx(0.14)
        port.now = 0.12
        reliable.on_ack(("a", "b"), admitted=0, processed=0)
        reliable.on_ack(("a", "c"), admitted=0, processed=0)
        assert reliable.next_deadline() is None  # everything admitted
        port.now = 5.0
        reliable.due(5.0)
        assert port.wire() == []
        assert reliable.backoff_by_channel() == {
            "a -> b": {"backoff_time": pytest.approx(0.11), "retransmissions": 1}}

    def test_acks_are_coalesced_per_channel_between_drains(self, port):
        reliable, metrics = port.reliable, port.metrics
        for seq in range(3):
            assert port.receive(seq) == [seq]
        reliable.on_processed(port.ops["b"], _message("a", "b", seq=0))
        reliable.on_processed(port.ops["b"], _message("a", "b", seq=1))
        assert reliable.drain_acks() == [(("a", "b"), 2, 1)]  # one, the latest
        assert reliable.drain_acks() == []  # nothing new
        # a duplicate of processed work re-dirties the channel so the
        # sender's view is refreshed
        assert port.receive(0) == []
        assert metrics.duplicates_dropped == 1
        assert reliable.drain_acks() == [(("a", "b"), 2, 1)]

    def test_reset_sender_returns_unprocessed_suffix(self, port):
        reliable = port.reliable
        for _ in range(5):
            port.send("b")
        reliable.on_ack(("a", "b"), admitted=4, processed=2)
        assert reliable.next_deadline() is None
        base_seq, replays = reliable.reset_sender(("a", "b"))
        assert base_seq == 3
        assert [m.seq for m in replays] == [3, 4]
        assert reliable.next_deadline() is not None  # replaying again
        assert reliable.reset_sender(("a", "z")) is None
        assert reliable.sender_channels_to({"b"}) == [("a", "b")]
        reliable.forget_sender(("a", "b"))
        assert reliable.sender_channels_to({"b"}) == []

    def test_install_reset_moves_admission_base_and_acks(self, port):
        reliable = port.reliable
        port.receive(0)
        reliable.drain_acks()
        reliable.install_reset(("a", "b"), base_seq=5)
        assert reliable.drain_acks() == [(("a", "b"), 4, 4)]
        assert port.receive(4) == []  # below base
        assert port.receive(5) == [5]

    def test_drop_receivers_from_forgets_sender_side_state(self, port):
        reliable = port.reliable
        port.receive(0)
        reliable.drop_receivers_from({"a"})
        assert reliable.drain_acks() == []  # no one left to ack
        # the reborn sender restarts its sequence space from zero
        assert port.receive(0) == [0]

    def test_loss_injection_counts_and_triggers_gap(self):
        """A loss window of the config's schedule drops an incoming data
        entry in the worker's transport, before the receiver half sees it,
        and only while the window is open on the worker's clock."""
        config = EngineConfig(
            backend="mp", nodes=2, workers_per_node=1, placement="round_robin",
            seed=3, fault_schedule=FaultSchedule(
                losses=[ChannelLoss(rate=1.0, scope="remote", end=1.0)]),
        )
        jobs = [make_bulk_analytics_job("ba", source_count=1, agg_parallelism=1)]
        worker = MpWorker(1, config, jobs)
        source, agg = OpAddress("ba", "source", 0), OpAddress("ba", "agg0", 0)
        source, agg = worker._ops[source], worker._ops[agg]
        assert (source.node_id, agg.node_id) == (0, 1)
        worker.sim.epoch = time.monotonic()  # t = 0: the window is open
        worker.transport.on_entries([("msg", _message(source.address, agg.address, 0))])
        assert worker.metrics.messages_lost_network == 1
        assert worker._delivery.drain_acks() == []  # the receiver half never saw it
        assert len(agg.mailbox) == 0
        worker.sim.epoch -= 2.0  # t = 2: the window closed at 1 s
        worker.transport.on_entries([("msg", _message(source.address, agg.address, 0))])
        assert worker.metrics.messages_lost_network == 1
        assert len(agg.mailbox) == 1

    def test_idle_accounting(self, port):
        reliable = port.reliable
        assert reliable.idle()
        port.send("b")
        assert not reliable.idle() and reliable.outstanding_total() == 1
        reliable.on_ack(("a", "b"), admitted=0, processed=0)
        assert reliable.idle() and reliable.outstanding_total() == 0
        port.receive(1)  # buffered behind a gap
        assert not reliable.idle()
        port.receive(0)
        assert not reliable.idle()  # an ack is pending
        reliable.drain_acks()
        assert reliable.idle()

    def test_rejects_bad_rto(self):
        with pytest.raises(ValueError):
            MpReliableDelivery(SimpleNamespace(now=0.0), rto=0.5, rto_cap=0.1,
                               metrics=MetricsHub())
