"""Micro-benchmarks of the scheduler data structures themselves.

Unlike the figure benches (one timed simulation per test), these use
pytest-benchmark's normal repeated-rounds mode to measure the per-operation
cost of the structures on Cameo's hot path: mailbox push/pop, run-queue
notify/pop, and full context conversion.
"""

import pytest

from repro.core.context import PriorityContext
from repro.core.converter import ContextConverter
from repro.core.policies import LeastLaxityFirstPolicy
from repro.core.progress_map import IdentityProgressMap
from repro.core.scheduler import CameoRunQueue, PriorityMailbox
from repro.dataflow.messages import Message
from repro.dataflow.windows import WindowSpec
from repro.runtime.baselines import FifoRunQueue

N = 2_000


class _OpStub:
    __slots__ = ("mailbox", "busy", "queue_token", "in_queue")

    def __init__(self, mailbox):
        self.mailbox = mailbox
        self.busy = False
        self.queue_token = -1
        self.in_queue = False


def _messages(n):
    return [
        Message(target=None,
                pc=PriorityContext(pri_local=float(i % 97), pri_global=float(i % 89)))
        for i in range(n)
    ]


def test_priority_mailbox_push_pop(benchmark):
    messages = _messages(N)

    def push_pop():
        box = PriorityMailbox()
        for msg in messages:
            box.push(msg)
        while box:
            box.pop()

    benchmark(push_pop)


@pytest.mark.parametrize("queue_factory", [CameoRunQueue, FifoRunQueue],
                         ids=["cameo", "fifo"])
def test_run_queue_notify_pop(benchmark, queue_factory):
    messages = _messages(N)

    def churn():
        queue = queue_factory()
        ops = [_OpStub(queue.create_mailbox()) for _ in range(64)]
        for i, msg in enumerate(messages):
            op = ops[i % len(ops)]
            op.mailbox.push(msg)
            queue.notify(op, now=float(i))
            popped = queue.pop(0)
            if popped is not None:
                popped.mailbox.pop()

    benchmark(churn)


def test_context_conversion(benchmark):
    converter = ContextConverter(
        job_name="bench", latency_constraint=0.8,
        own_window=None, policy=LeastLaxityFirstPolicy(),
        progress_map=IdentityProgressMap(),
    )
    converter.seed_reply_state("agg", 0.0005, 0.001)
    window = WindowSpec.tumbling(1.0)

    def convert():
        for i in range(N):
            converter.build(p=i * 0.01, t=i * 0.01, now=i * 0.01,
                            target_stage="agg", target_window=window)

    benchmark(convert)
