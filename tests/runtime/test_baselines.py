"""Unit tests for the Orleans-like and FIFO baseline run queues."""

from repro.core.context import PriorityContext
from repro.dataflow.messages import Message
from repro.runtime.baselines import FifoRunQueue, OrleansRunQueue


class FakeOp:
    def __init__(self, mailbox):
        self.mailbox = mailbox
        self.busy = False
        self.queue_token = -1
        self.in_queue = False


def make_op(queue):
    op = FakeOp(queue.create_mailbox())
    op.mailbox.push(Message(target=None, pc=PriorityContext()))
    return op


class TestFifoRunQueue:
    def test_fifo_order(self):
        queue = FifoRunQueue()
        ops = [make_op(queue) for _ in range(3)]
        for op in ops:
            queue.notify(op, now=0.0)
        assert [queue.pop(0) for _ in range(3)] == ops

    def test_no_duplicate_entries(self):
        queue = FifoRunQueue()
        op = make_op(queue)
        queue.notify(op, now=0.0)
        queue.notify(op, now=0.0)  # second message, already queued
        assert queue.pop(0) is op
        assert queue.pop(0) is None

    def test_busy_op_not_queued(self):
        queue = FifoRunQueue()
        op = make_op(queue)
        op.busy = True
        queue.notify(op, now=0.0)
        assert queue.pop(0) is None

    def test_drained_op_skipped(self):
        queue = FifoRunQueue()
        op = make_op(queue)
        queue.notify(op, now=0.0)
        op.mailbox.pop()
        assert queue.pop(0) is None

    def test_should_swap_when_anyone_waits(self):
        queue = FifoRunQueue()
        current = make_op(queue)
        assert not queue.should_swap(current)
        other = make_op(queue)
        queue.notify(other, now=0.0)
        assert queue.should_swap(current)

    def test_requeue(self):
        queue = FifoRunQueue()
        op = make_op(queue)
        queue.requeue(op, 0)
        assert queue.pop(0) is op


class TestPeekBestPriority:
    """Neither baseline orders by a key: the admission gate of the mp
    worker asks every run queue, and these answer None, queued or not."""

    def test_fifo_has_no_key(self):
        queue = FifoRunQueue()
        assert queue.peek_best_priority() is None
        queue.notify(make_op(queue), now=0.0)
        assert queue.peek_best_priority() is None

    def test_orleans_has_no_key(self):
        queue = OrleansRunQueue(worker_count=2)
        assert queue.peek_best_priority() is None
        queue.notify(make_op(queue), now=0.0, worker_hint=1)
        queue.notify(make_op(queue), now=0.0)
        assert queue.peek_best_priority() is None


class TestOrleansRunQueue:
    def test_local_preferred_over_global(self):
        queue = OrleansRunQueue(worker_count=2)
        global_op = make_op(queue)
        local_op = make_op(queue)
        queue.notify(global_op, now=0.0)               # no hint -> global
        queue.notify(local_op, now=0.0, worker_hint=0)  # worker 0 local
        assert queue.pop(0) is local_op
        assert queue.pop(0) is global_op

    def test_local_is_lifo(self):
        queue = OrleansRunQueue(worker_count=1)
        first = make_op(queue)
        second = make_op(queue)
        queue.notify(first, now=0.0, worker_hint=0)
        queue.notify(second, now=0.0, worker_hint=0)
        assert queue.pop(0) is second  # freshest local work first

    def test_steals_oldest_from_fullest_peer(self):
        queue = OrleansRunQueue(worker_count=2)
        a, b = make_op(queue), make_op(queue)
        queue.notify(a, now=0.0, worker_hint=1)
        queue.notify(b, now=0.0, worker_hint=1)
        stolen = queue.pop(0)  # worker 0 has nothing: steal from worker 1
        assert stolen is a  # oldest item stolen

    def test_global_fifo(self):
        queue = OrleansRunQueue(worker_count=1)
        ops = [make_op(queue) for _ in range(3)]
        for op in ops:
            queue.notify(op, now=0.0)
        assert [queue.pop(0) for _ in range(3)] == ops

    def test_pending_count(self):
        queue = OrleansRunQueue(worker_count=2)
        queue.notify(make_op(queue), now=0.0)
        queue.notify(make_op(queue), now=0.0, worker_hint=1)
        assert queue.pending_operator_count() == 2

    def test_empty_pop_returns_none(self):
        assert OrleansRunQueue(worker_count=1).pop(0) is None
