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

Wall-clock numbers on a shared host swing from run to run, so after one
warm-up pass the three schemes run ``REPS`` times, interleaved (fifo,
sched, full, fifo, ...), each on fresh queues.  Every row is the median
over the reps, with the interquartile range beside it; the overhead the
right panel divides is the median over reps of ``full − fifo``.
"""

from __future__ import annotations

import time

import numpy as np

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

#: interleaved measurement reps per scheme, after one warm-up pass
REPS = 5


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


def _quartiles(samples: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return float(q1), float(median), float(q3)


def run_fig12(
    message_count: int = 30_000,
    operator_count: int = 300,
    batch_sizes: tuple = (1, 1000, 5000, 20000, 80000),
) -> ExperimentResult:
    result = ExperimentResult(
        name="fig12",
        title=f"Scheduling overhead (wall-clock microbenchmark, median of {REPS} reps)",
        headers=["panel", "scheme / batch", "ns per message", "IQR (ns)",
                 "overhead fraction"],
        notes="expect: cameo adds bounded per-message cost over fifo; "
              "overhead fraction falls with batch size",
    )
    static_pc = PriorityContext()

    def static_build():
        return lambda i: static_pc

    def converter_build():
        converter = ContextConverter(
            job_name="noop", latency_constraint=1.0, own_window=None,
            policy=LeastLaxityFirstPolicy(), progress_map=IdentityProgressMap(),
        )
        converter.seed_reply_state("target", 0.0005, 0.001)

        def build(i: int) -> PriorityContext:
            return converter.build(p=float(i), t=float(i), now=float(i),
                                   target_stage="target", target_window=None)

        return build

    # (i) FIFO baseline; (ii) Cameo priority scheduling only (constant
    # priorities, no generation); (iii) full Cameo: per-message context
    # conversion with the LLF policy
    schemes = {
        "fifo": (FifoRunQueue, static_build),
        "sched": (CameoRunQueue, static_build),
        "full": (CameoRunQueue, converter_build),
    }

    def measure(scheme: str, count: int) -> float:
        queue_cls, make_build = schemes[scheme]
        run_queue = queue_cls()
        ops = [_OpStub(run_queue.create_mailbox()) for _ in range(operator_count)]
        messages = [Message(target=None, p=float(i), t=float(i)) for i in range(count)]
        return _drive(run_queue, ops, messages, make_build())

    for scheme in schemes:  # warm-up: first-touch allocation and caches
        measure(scheme, min(message_count, 5_000))
    samples: dict[str, list[float]] = {scheme: [] for scheme in schemes}
    for _ in range(REPS):
        for scheme in schemes:
            samples[scheme].append(measure(scheme, message_count))
    stats = {scheme: _quartiles(values) for scheme, values in samples.items()}
    fifo_ns, sched_ns, full_ns = (stats[s][1] for s in schemes)
    generation = _quartiles(
        [full - fifo for full, fifo in zip(samples["full"], samples["fifo"])])

    def iqr(scheme: str) -> str:
        q1, _, q3 = stats[scheme]
        return f"{q1:.0f}-{q3:.0f}"

    result.rows += [
        ["left", "fifo", fifo_ns, iqr("fifo"), 0.0],
        ["left", "cameo w/o priority generation", sched_ns, iqr("sched"),
         (sched_ns - fifo_ns) / fifo_ns],
        ["left", "cameo full (LLF)", full_ns, iqr("full"),
         (full_ns - fifo_ns) / fifo_ns],
        ["left", "full - fifo (per rep)", generation[1],
         f"{generation[0]:.0f}-{generation[2]:.0f}", generation[1] / fifo_ns],
    ]
    result.extras.update(fifo_ns=fifo_ns, sched_ns=sched_ns, full_ns=full_ns,
                         full_minus_fifo_ns=generation[1])

    # right panel: overhead vs execution cost of a local aggregation message
    cameo_overhead_s = generation[1] / 1e9
    for batch in batch_sizes:
        execution = LOCAL_AGG_COST.nominal(batch)
        fraction = cameo_overhead_s / execution
        result.rows.append(["right", f"batch={batch}", full_ns, "", fraction])
        result.extras[("overhead_fraction", batch)] = fraction
    return result
