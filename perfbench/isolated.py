"""Isolated layer costs: direct calls with synthetic inputs, no workload.

The shapes are the legacy ``repro bench`` microbenches (so the ROADMAP's
drift numbers continue under the new names, see README), timed best-of-5
and importing only runtime modules — never ``repro.bench``.
"""

from __future__ import annotations

import time

import numpy as np

REPEATS = 5


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class _OpStub:
    """The attributes a run queue reads off an operator runtime."""

    __slots__ = ("mailbox", "busy", "queue_token", "queued_key", "queued_seq",
                 "in_queue")

    def __init__(self, mailbox):
        self.mailbox = mailbox
        self.busy = False
        self.queue_token = -1
        self.queued_key = None
        self.queued_seq = 0
        self.in_queue = False


def kernel_events(n: int) -> float:
    """ns per schedule-and-fire on a small constant-size heap (64 chains)."""
    from repro.sim.kernel import Simulator

    def run() -> None:
        sim = Simulator()
        schedule = sim.schedule_fast
        remaining = n

        def tick() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining > 0:
                schedule(1e-6, tick)

        for _ in range(64):
            schedule(1e-6, tick)
        sim.run()

    return _best_of(run) / n * 1e9


def scheduler_fanin(n: int, operators: int = 32) -> float:
    """ns per notify to already-queued operators plus the final drain."""
    from repro.core.context import PriorityContext
    from repro.core.scheduler import CameoRunQueue
    from repro.dataflow.messages import Message

    msg = Message(target=None, pc=PriorityContext(pri_local=1.0, pri_global=1.0))
    per_op = max(1, n // operators)

    def run_once() -> float:
        queue = CameoRunQueue()
        ops = [_OpStub(queue.create_mailbox()) for _ in range(operators)]
        for op in ops:
            for _ in range(per_op):
                op.mailbox.push(msg)
            queue.notify(op, now=0.0)
        start = time.perf_counter()
        for i in range(n):
            queue.notify(ops[i % operators], now=0.0)
        while queue.pop(0) is not None:
            pass
        return time.perf_counter() - start

    return min(run_once() for _ in range(REPEATS)) / n * 1e9


def scheduler_churn(n: int, operators: int = 64) -> float:
    """ns per push/notify/pop cycle across many operators."""
    from repro.core.context import PriorityContext
    from repro.core.scheduler import CameoRunQueue
    from repro.dataflow.messages import Message

    messages = [
        Message(target=None,
                pc=PriorityContext(pri_local=float(i % 97), pri_global=float(i % 89)))
        for i in range(n)
    ]

    def run() -> None:
        queue = CameoRunQueue()
        ops = [_OpStub(queue.create_mailbox()) for _ in range(operators)]
        for i, msg in enumerate(messages):
            op = ops[i % operators]
            op.mailbox.push(msg)
            queue.notify(op, now=float(i))
            popped = queue.pop(0)
            if popped is not None:
                popped.mailbox.pop()

    return _best_of(run) / n * 1e9


def message_alloc(n: int) -> float:
    """ns per Message + PriorityContext construction (one per hop)."""
    from repro.core.context import PriorityContext
    from repro.dataflow.messages import Message

    def run() -> None:
        for i in range(n):
            Message(
                target=None, p=float(i), t=float(i), deps_arrival=float(i),
                pc=PriorityContext(pri_local=float(i), pri_global=float(i)),
                channel_index=0,
            )

    return _best_of(run) / n * 1e9


def _frame_entries() -> list:
    """A representative DATA flush batch: 16 small aggregation emissions
    with priority contexts plus the quantum's piggybacked acks and replies."""
    from repro.core.context import PriorityContext, ReplyContext
    from repro.dataflow.events import EventBatch
    from repro.dataflow.messages import Message
    from repro.dataflow.operators import OpAddress

    entries = []
    for i in range(16):
        batch = EventBatch(
            np.linspace(float(i), float(i) + 1.0, 8),
            np.arange(8, dtype=np.float64), np.arange(8, dtype=np.int64),
            arrival_time=float(i), source_id=i % 4, times_sorted=True,
        )
        msg = Message(
            target=OpAddress(f"job{i % 4}", "agg1", 0), batch=batch,
            p=float(i), t=float(i), deps_arrival=float(i),
            sender=OpAddress(f"job{i % 4}", "agg0", i % 2),
            pc=PriorityContext(pri_local=float(i), pri_global=float(i),
                               deadline=float(i) + 0.5),
            channel_index=i % 3,
        )
        msg.seq = i
        entries.append(("msg", msg))
    for i in range(4):
        key = (OpAddress(f"job{i}", "agg0", 0), OpAddress(f"job{i}", "agg1", 0))
        entries.append(("ack", key, 40 + i, 38 + i))
        entries.append((
            "reply", OpAddress(f"job{i}", "agg0", 0), "agg1",
            ReplyContext(c_m=1e-4, c_path=3e-4, queueing_delay=1e-3, mailbox_size=i),
        ))
    return entries


def frames_codec(frames: int) -> float:
    """us per DATA frame, encode + decode, after the interning exchange."""
    from repro.runtime.mp.frames import DataCodec

    entries = _frame_entries()

    def run() -> None:
        sender, receiver = DataCodec(), DataCodec()
        receiver.decode_data(sender.encode_data(entries))  # definitions
        for _ in range(frames):
            receiver.decode_data(sender.encode_data(entries))

    return _best_of(run) / frames * 1e6


def state_store(windows: int, keys: int) -> tuple[float, float, float]:
    """ns per key of snapshot, restore and split+merge on a loaded store."""
    from repro.state.store import AggregateStateStore, _Accumulator, _WindowState

    store = AggregateStateStore()
    for w in range(windows):
        state = _WindowState()
        for k in range(keys):
            acc = _Accumulator()
            acc.add(float(k) * 0.5)
            acc.add(float(k) - 7.0)
            state.accumulators[k] = acc
            state.tuple_count += 2
        state.max_arrival = float(w + 1)
        store.windows[float(w + 1)] = state
    data = store.snapshot()
    fresh = AggregateStateStore()

    def split_merge() -> None:
        store.merge(store.split(lambda key: key % 2 == 1))

    per_key = 1e9 / (windows * keys)
    return (_best_of(store.snapshot) * per_key,
            _best_of(lambda: fresh.restore(data)) * per_key,
            _best_of(split_merge) * per_key)


def run_all(quick: bool = False) -> dict:
    """Every isolated metric by name (``--quick``: a tenth of the work)."""
    scale = 10 if quick else 1
    snapshot, restore, split_merge = state_store(
        windows=16 // (4 if quick else 1), keys=2048 // (8 if quick else 1))
    return {
        "sim.kernel.isolated_ns_per_event": kernel_events(200_000 // scale),
        "core.scheduler.fanin_ns_per_op": scheduler_fanin(100_000 // scale),
        "core.scheduler.churn_ns_per_op": scheduler_churn(100_000 // scale),
        "dataflow.messages.alloc_ns_per_msg": message_alloc(200_000 // scale),
        "runtime.mp.frames.codec_us_per_frame": frames_codec(2_000 // scale),
        "state.store.snapshot_ns_per_key": snapshot,
        "state.store.restore_ns_per_key": restore,
        "state.store.split_merge_ns_per_key": split_merge,
    }
