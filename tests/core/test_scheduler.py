"""Unit and property tests for mailboxes and the two-level run queue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import PriorityContext
from repro.core.scheduler import CameoRunQueue, FifoMailbox, PriorityMailbox
from repro.dataflow.messages import Message


def priced_message(local: float, global_: float) -> Message:
    return Message(target=None, pc=PriorityContext(pri_local=local, pri_global=global_))


class FakeOp:
    def __init__(self, mailbox):
        self.mailbox = mailbox
        self.busy = False
        self.queue_token = -1
        self.in_queue = False


class TestFifoMailbox:
    def test_fifo_order(self):
        box = FifoMailbox()
        for i in range(3):
            box.push(priced_message(0, i))
        assert [box.pop().pc.pri_global for _ in range(3)] == [0, 1, 2]

    def test_head_priority_without_pc(self):
        box = FifoMailbox()
        box.push(Message(target=None))
        assert box.head_global_priority() == 0.0

    def test_empty_head_raises(self):
        with pytest.raises(IndexError):
            FifoMailbox().head_global_priority()

    def test_bool_and_len(self):
        box = FifoMailbox()
        assert not box
        box.push(priced_message(0, 0))
        assert box and len(box) == 1


class TestPriorityMailbox:
    def test_orders_by_local_priority(self):
        box = PriorityMailbox()
        box.push(priced_message(3.0, 0))
        box.push(priced_message(1.0, 0))
        box.push(priced_message(2.0, 0))
        assert [box.pop().pc.pri_local for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_equal_local_priority_is_fifo(self):
        box = PriorityMailbox()
        for i in range(5):
            box.push(priced_message(1.0, float(i)))
        assert [box.pop().pc.pri_global for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_head_global_priority_follows_local_order(self):
        box = PriorityMailbox()
        box.push(priced_message(2.0, 99.0))
        box.push(priced_message(1.0, 5.0))
        assert box.head_global_priority() == 5.0  # head by local order

    def test_requires_pc(self):
        with pytest.raises(ValueError):
            PriorityMailbox().push(Message(target=None))


class TestCameoRunQueue:
    def test_pops_lowest_global_priority_first(self):
        queue = CameoRunQueue()
        ops = []
        for priority in (3.0, 1.0, 2.0):
            op = FakeOp(queue.create_mailbox())
            op.mailbox.push(priced_message(0.0, priority))
            queue.notify(op, now=0.0)
            ops.append(op)
        assert queue.pop(0) is ops[1]
        assert queue.pop(0) is ops[2]
        assert queue.pop(0) is ops[0]
        assert queue.pop(0) is None

    def test_busy_operator_not_queued(self):
        queue = CameoRunQueue()
        op = FakeOp(queue.create_mailbox())
        op.busy = True
        op.mailbox.push(priced_message(0.0, 1.0))
        queue.notify(op, now=0.0)
        assert queue.pop(0) is None

    def test_lazy_reprioritisation(self):
        queue = CameoRunQueue()
        op_a = FakeOp(queue.create_mailbox())
        op_b = FakeOp(queue.create_mailbox())
        op_a.mailbox.push(priced_message(0.0, 10.0))
        queue.notify(op_a, now=0.0)
        op_b.mailbox.push(priced_message(0.0, 5.0))
        queue.notify(op_b, now=0.0)
        # a more urgent message lands on op_a: fresh entry outranks op_b
        op_a.mailbox.push(priced_message(-1.0, 1.0))
        queue.notify(op_a, now=0.0)
        assert queue.pop(0) is op_a

    def test_stale_entries_skipped(self):
        queue = CameoRunQueue()
        op = FakeOp(queue.create_mailbox())
        op.mailbox.push(priced_message(0.0, 10.0))
        queue.notify(op, now=0.0)
        op.mailbox.push(priced_message(-1.0, 1.0))
        queue.notify(op, now=0.0)  # older entry now stale
        assert queue.pop(0) is op
        assert queue.pop(0) is None  # stale duplicate must not reappear

    def test_empty_mailbox_entry_skipped(self):
        queue = CameoRunQueue()
        op = FakeOp(queue.create_mailbox())
        op.mailbox.push(priced_message(0.0, 1.0))
        queue.notify(op, now=0.0)
        op.mailbox.pop()  # drained out-of-band
        assert queue.pop(0) is None

    def test_should_swap_only_for_strictly_higher_priority(self):
        queue = CameoRunQueue()
        current = FakeOp(queue.create_mailbox())
        current.mailbox.push(priced_message(0.0, 5.0))
        waiting = FakeOp(queue.create_mailbox())
        waiting.mailbox.push(priced_message(0.0, 5.0))
        queue.notify(waiting, now=0.0)
        assert not queue.should_swap(current)  # tie: stay
        urgent = FakeOp(queue.create_mailbox())
        urgent.mailbox.push(priced_message(0.0, 1.0))
        queue.notify(urgent, now=0.0)
        assert queue.should_swap(current)

    def test_should_swap_when_current_drained(self):
        queue = CameoRunQueue()
        current = FakeOp(queue.create_mailbox())
        waiting = FakeOp(queue.create_mailbox())
        waiting.mailbox.push(priced_message(0.0, 99.0))
        queue.notify(waiting, now=0.0)
        assert queue.should_swap(current)

    def test_no_swap_when_queue_empty(self):
        queue = CameoRunQueue()
        current = FakeOp(queue.create_mailbox())
        current.mailbox.push(priced_message(0.0, 5.0))
        assert not queue.should_swap(current)

    def test_peek_is_none_when_nothing_is_runnable(self):
        queue = CameoRunQueue()
        assert queue.peek_best_priority() is None
        op = FakeOp(queue.create_mailbox())
        op.mailbox.push(priced_message(0.0, 3.0))
        queue.notify(op, now=0.0)
        assert queue.peek_best_priority() == 3.0
        assert queue.pop(0) is op
        assert queue.peek_best_priority() is None

    def test_changed_head_key_supersedes_old_entry(self):
        queue = CameoRunQueue()
        urgent = FakeOp(queue.create_mailbox())
        lax = FakeOp(queue.create_mailbox())
        lax.mailbox.push(priced_message(1.0, 5.0))
        queue.notify(lax, now=0.0)
        urgent.mailbox.push(priced_message(1.0, 7.0))
        queue.notify(urgent, now=0.0)
        # a more urgent head arrives for `urgent`: must jump ahead of `lax`
        urgent.mailbox.push(priced_message(0.0, 1.0))
        queue.notify(urgent, now=0.0)
        assert queue.pending_operator_count() == 2
        assert queue.pop(0) is urgent
        assert queue.pop(0) is lax
        assert queue.pop(0) is None  # superseded entry dropped lazily

    def test_equal_keys_pop_in_latest_notify_order(self):
        queue = CameoRunQueue()
        first = FakeOp(queue.create_mailbox())
        second = FakeOp(queue.create_mailbox())
        for op in (first, second):
            op.mailbox.push(priced_message(1.0, 5.0))
            queue.notify(op, now=0.0)
        # fan-in behind an unchanged head: `first` moves to the back of
        # its tie class
        first.mailbox.push(priced_message(2.0, 9.0))
        queue.notify(first, now=0.0)
        assert queue.pop(0) is second
        assert queue.pop(0) is first
        assert queue.pop(0) is None

    def test_renotify_after_external_drain(self):
        # an operator whose mailbox was drained without a pop (defensive
        # token reset in _clean_top) must still be poppable after re-notify
        queue = CameoRunQueue()
        op = FakeOp(queue.create_mailbox())
        op.mailbox.push(priced_message(1.0, 5.0))
        queue.notify(op, now=0.0)
        op.mailbox.pop()  # drained out-of-band
        assert queue.pop(0) is None  # entry invalidated, token reset
        assert queue.pending_operator_count() == 0
        op.mailbox.push(priced_message(1.0, 5.0))
        queue.notify(op, now=0.0)
        assert queue.pop(0) is op

    def test_discarded_operator_stays_gone_after_moving(self):
        # migration: `op` leaves queue `a` for queue `b`, whose fresh token
        # for it equals the sequence number of the entry `a` held
        a, b = CameoRunQueue(), CameoRunQueue()
        first = FakeOp(a.create_mailbox())
        first.mailbox.push(priced_message(0.0, 5.0))
        a.notify(first, now=0.0)
        op = FakeOp(a.create_mailbox())
        op.mailbox.push(priced_message(0.0, 9.0))
        a.notify(op, now=0.0)
        a.discard(op)
        assert a.pending_operator_count() == 1
        other = FakeOp(b.create_mailbox())
        other.mailbox.push(priced_message(0.0, 1.0))
        b.notify(other, now=0.0)
        b.notify(op, now=0.0)
        assert a.pop(0) is first
        assert a.pop(0) is None  # never hand `op` to a worker of `a`
        assert b.pop(0) is other
        assert b.pop(0) is op

    def test_peek_matches_pop(self):
        queue = CameoRunQueue()
        for priority in (4.0, 2.0, 6.0):
            op = FakeOp(queue.create_mailbox())
            op.mailbox.push(priced_message(0.0, priority))
            queue.notify(op, now=0.0)
        assert queue.peek_best_priority() == 2.0
        popped = queue.pop(0)
        assert popped.mailbox.head_global_priority() == 2.0


@given(
    priorities=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1, max_size=200,
    )
)
@settings(max_examples=50, deadline=None)
def test_property_run_queue_is_a_priority_queue(priorities):
    """Popping all operators yields them in global-priority order."""
    queue = CameoRunQueue()
    for priority in priorities:
        op = FakeOp(queue.create_mailbox())
        op.mailbox.push(priced_message(0.0, priority))
        queue.notify(op, now=0.0)
    popped = []
    while True:
        op = queue.pop(0)
        if op is None:
            break
        popped.append(op.mailbox.head_global_priority())
    assert popped == sorted(priorities)


@given(
    messages=st.lists(
        st.tuples(st.floats(min_value=0, max_value=100, allow_nan=False),
                  st.floats(min_value=0, max_value=100, allow_nan=False)),
        min_size=1, max_size=200,
    )
)
@settings(max_examples=50, deadline=None)
def test_property_priority_mailbox_sorted_stable(messages):
    box = PriorityMailbox()
    for i, (local, global_) in enumerate(messages):
        msg = priced_message(local, global_)
        msg.enqueue_time = float(i)  # remember arrival order
        box.push(msg)
    out = [box.pop() for _ in range(len(messages))]
    locals_ = [m.pc.pri_local for m in out]
    assert locals_ == sorted(locals_)
    # stability: equal local priorities preserve arrival order
    for a, b in zip(out, out[1:]):
        if a.pc.pri_local == b.pc.pri_local:
            assert a.enqueue_time < b.enqueue_time


class TestHeadMessage:
    def test_priority_mailbox_head_message(self):
        box = PriorityMailbox()
        low = priced_message(5.0, 50.0)
        high = priced_message(1.0, 10.0)
        box.push(low)
        box.push(high)
        assert box.head_message() is high

    def test_fifo_mailbox_head_message(self):
        from repro.core.scheduler import FifoMailbox

        box = FifoMailbox()
        first = priced_message(0.0, 1.0)
        box.push(first)
        box.push(priced_message(0.0, 2.0))
        assert box.head_message() is first

    def test_empty_head_message_raises(self):
        import pytest as _pytest

        with _pytest.raises(IndexError):
            PriorityMailbox().head_message()
