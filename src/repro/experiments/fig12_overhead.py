"""Figure 12 — Cameo's scheduling overhead.

Left panel: per-message cost of the scheduler itself under a no-op
workload, broken into (i) FIFO baseline, (ii) Cameo's priority *scheduling*
(two-level queue, constant priorities) and (iii) full Cameo with priority
*generation* (context conversion + LLF arithmetic).  This is a genuine
wall-clock microbenchmark of this repository's data structures — the same
quantity the paper measures on its runtime (<15% worst case, ~4% from
scheduling and ~11% from generation).

Right panel: scheduling overhead as a fraction of message execution cost
for a local aggregation operator, by batch size — overhead falls as batches
grow (paper: 6.4% at batch size 1).
"""

from __future__ import annotations

import time

from repro.core.context import PriorityContext
from repro.core.converter import ContextConverter
from repro.core.policies import LeastLaxityFirstPolicy
from repro.core.progress_map import IdentityProgressMap
from repro.core.scheduler import CameoRunQueue
from repro.dataflow.graph import CostModel
from repro.dataflow.messages import Message
from repro.experiments.common import ExperimentResult
from repro.runtime.baselines import FifoRunQueue

#: the right panel's reference operator (local aggregation, §6.3)
LOCAL_AGG_COST = CostModel(base=0.0005, per_tuple=1e-6)


class _OpStub:
    """Minimal operator-shaped object for driving run queues directly."""

    __slots__ = ("mailbox", "busy", "queue_token", "in_queue")

    def __init__(self, mailbox):
        self.mailbox = mailbox
        self.busy = False
        self.queue_token = -1
        self.in_queue = False


def _drive(run_queue, ops, messages, build_pc) -> float:
    """Push/pop ``messages`` round-robin across ``ops``; returns ns/message."""
    count = len(messages)
    start = time.perf_counter()
    for i, msg in enumerate(messages):
        op = ops[i % len(ops)]
        msg.pc = build_pc(i)
        op.mailbox.push(msg)
        run_queue.notify(op, now=float(i))
        popped = run_queue.pop(0)
        if popped is not None:
            popped.busy = True
            popped.mailbox.pop()
            popped.busy = False
    elapsed = time.perf_counter() - start
    return elapsed / count * 1e9


def run_fig12(
    message_count: int = 30_000,
    operator_count: int = 300,
    batch_sizes: tuple = (1, 1000, 5000, 20000, 80000),
) -> ExperimentResult:
    result = ExperimentResult(
        name="fig12",
        title="Scheduling overhead (wall-clock microbenchmark)",
        headers=["panel", "scheme / batch", "ns per message", "overhead fraction"],
        notes="expect: cameo adds bounded per-message cost over fifo; "
              "overhead fraction falls with batch size",
    )

    def messages():
        return [Message(target=None, p=float(i), t=float(i)) for i in range(message_count)]

    # (i) FIFO baseline
    fifo = FifoRunQueue()
    fifo_ops = [_OpStub(fifo.create_mailbox()) for _ in range(operator_count)]
    static_pc = PriorityContext()
    fifo_ns = _drive(fifo, fifo_ops, messages(), lambda i: static_pc)

    # (ii) Cameo priority scheduling only (constant priorities, no generation)
    sched_queue = CameoRunQueue()
    sched_ops = [_OpStub(sched_queue.create_mailbox()) for _ in range(operator_count)]
    sched_ns = _drive(sched_queue, sched_ops, messages(), lambda i: static_pc)

    # (iii) full Cameo: per-message context conversion with the LLF policy
    converter = ContextConverter(
        job_name="noop", latency_constraint=1.0, own_window=None,
        policy=LeastLaxityFirstPolicy(), progress_map=IdentityProgressMap(),
    )
    converter.seed_reply_state("target", 0.0005, 0.001)
    full_queue = CameoRunQueue()
    full_ops = [_OpStub(full_queue.create_mailbox()) for _ in range(operator_count)]

    def build(i: int) -> PriorityContext:
        return converter.build(p=float(i), t=float(i), now=float(i),
                               target_stage="target", target_window=None)

    full_ns = _drive(full_queue, full_ops, messages(), build)

    result.rows += [
        ["left", "fifo", fifo_ns, 0.0],
        ["left", "cameo w/o priority generation", sched_ns,
         (sched_ns - fifo_ns) / fifo_ns],
        ["left", "cameo full (LLF)", full_ns, (full_ns - fifo_ns) / fifo_ns],
    ]
    result.extras.update(fifo_ns=fifo_ns, sched_ns=sched_ns, full_ns=full_ns)

    # right panel: overhead vs execution cost of a local aggregation message
    cameo_overhead_s = (full_ns - fifo_ns) / 1e9
    for batch in batch_sizes:
        execution = LOCAL_AGG_COST.nominal(batch)
        fraction = cameo_overhead_s / execution
        result.rows.append(["right", f"batch={batch}", full_ns, fraction])
        result.extras[("overhead_fraction", batch)] = fraction
    return result
