"""Benchmark-regression harness: ``repro bench``.

Times the hot paths this reproduction lives on — the fig08 multi-tenant
figure workload end-to-end, plus microbenches of the simulation kernel and
the scheduler data structures — and writes the measurements to
``BENCH_<label>.json`` so every PR leaves a perf trajectory behind.

Usage::

    python -m repro.cli bench --label seed
    python -m repro.cli bench --label pr2 --compare BENCH_seed.json
    python -m repro.cli bench --quick            # fast smoke (CI)

The workload benches are single-shot wall-clock timings of deterministic
simulations (the dominant cost is the simulated cluster's message churn);
the microbenches use best-of-N repetition.  The harness deliberately calls
the *same* entry points the engine uses — e.g. the kernel bench measures
``schedule_at_fast`` when the kernel provides it and falls back to
``schedule_at`` on older checkouts, so a comparison across revisions times
"what the engine pays per event" on each side.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Callable, Optional


def _best_of(fn: Callable[[], None], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


# ----------------------------------------------------------------------
# workload benches (end-to-end figure workloads)
# ----------------------------------------------------------------------

def bench_fig08_multi_tenant(duration: float = 30.0, seed: int = 4) -> dict:
    """The fig08 multi-tenant cell (all three schedulers), timed end-to-end."""
    from repro.experiments.common import TenantMix, run_tenant_mix

    result: dict = {
        "kind": "workload", "unit": "s", "backend": "sim",
        "nodes": 2, "workers_per_node": 2, "schedulers": {},
    }
    total = 0.0
    messages = 0
    for scheduler in ("cameo", "orleans", "fifo"):
        mix = TenantMix(ls_count=4, ba_count=4, ba_msg_rate=60.0)
        start = time.perf_counter()
        engine = run_tenant_mix(
            scheduler, mix, duration=duration, seed=seed, nodes=2, workers_per_node=2
        )
        elapsed = time.perf_counter() - start
        result["schedulers"][scheduler] = {
            "seconds": elapsed,
            "messages": engine.metrics.total_messages,
        }
        total += elapsed
        messages += engine.metrics.total_messages
    result["seconds"] = total
    result["messages"] = messages
    result["us_per_message"] = total / messages * 1e6 if messages else float("nan")
    return result


def bench_fig07_single_tenant(duration: float = 20.0, seed: int = 2) -> dict:
    """A single-tenant windowed pipeline under Cameo (fig07-style load)."""
    from repro.experiments.common import TenantMix, run_tenant_mix

    mix = TenantMix(ls_count=4, ba_count=0)
    start = time.perf_counter()
    engine = run_tenant_mix(
        "cameo", mix, duration=duration, seed=seed, nodes=1, workers_per_node=4
    )
    elapsed = time.perf_counter() - start
    return {
        "kind": "workload",
        "unit": "s",
        "backend": "sim",
        "nodes": 1,
        "workers_per_node": 4,
        "seconds": elapsed,
        "messages": engine.metrics.total_messages,
    }


def bench_mp_scaling(
    duration: float = 6.0, seed: int = 4, worker_counts=(1, 2, 4),
    cost_mode: str = "sleep", tuples_per_msg: int = 1000,
    heartbeat_interval: Optional[float] = None, repeats: int = 1,
) -> dict:
    """Process-backend wall-clock scaling: the same captured trace executed
    for real at 1/2/4 worker processes (``backend="mp"``, flooded replay,
    in-worker ingestion).

    The trace and the per-message cost samples' totals are fixed by the
    workload, so wall-clock seconds measure how well the runtime spreads
    the execution across processes; ``speedup_vs_1`` at the highest worker
    count is the headline number.  ``cost_mode="sleep"`` overlaps idle
    time (capacity scales even on few cores); ``"spin"`` burns calibrated
    CPU work per sampled cost — the concurrent calibration barrier prices
    host contention into each worker's rate, so the series is honestly
    CPU-bound on a core-per-worker host and measures pure scheduling
    scalability on an oversubscribed one (target: >= 3.2x at 4 workers,
    zero FIFO violations).

    Two timings per point: ``seconds`` is the whole engine run (capture,
    fork, calibration, execution, merge — the end-to-end cost a user
    pays), ``run_seconds`` is the coordinator's execution wall from the
    shared epoch to quiescence.  ``speedup_vs_1`` is computed on
    ``run_seconds``: capture and fork are per-run setup and the spin
    calibration barrier is a fixed startup toll, none of which the
    worker count is supposed to amortize.

    Placement is ``pack_by_job`` (the slot-reserved deployment): every
    job's address block is a multiple of 4 operators long, so round-robin
    placement aliases with a 4-node cluster and piles every job's
    expensive aggregation stage onto the same two nodes — packing by job
    spreads the six jobs' cost evenly and is the configuration a
    throughput scaling claim is about.
    """
    from repro.experiments.common import TenantMix, run_tenant_mix

    result: dict = {
        "kind": "workload", "unit": "s", "backend": "mp",
        "cost_mode": cost_mode, "workers": {},
    }
    total = 0.0
    messages = 0
    base: Optional[float] = None
    for workers in worker_counts:
        mix = TenantMix(
            ls_count=2, ba_count=4, ba_msg_rate=10.0,
            tuples_per_msg=tuples_per_msg,
        )
        overrides = {
            "backend": "mp",
            "mp_realtime": False,
            "mp_cost_mode": cost_mode,
            "placement": "pack_by_job",
        }
        if heartbeat_interval is not None:
            overrides["heartbeat_interval"] = heartbeat_interval
        # ``repeats`` > 1 re-runs the identical point and keeps the
        # median execution wall: on a shared host, transient steal can
        # skew any single run by >10%, and the scaling ratio inherits
        # that noise from whichever point it hits.  The trace is
        # seed-deterministic, so reps differ only in host conditions.
        reps = []
        elapsed_total = 0.0
        fifo = 0
        engine = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            engine = run_tenant_mix(
                "cameo", mix, duration=duration, drain=0.0, seed=seed,
                nodes=workers, workers_per_node=1,
                config_overrides=overrides,
            )
            elapsed = time.perf_counter() - start
            elapsed_total += elapsed
            fifo = max(fifo, engine.info["fifo_violations"])
            reps.append((engine.info["wall_time"], elapsed))
        reps.sort()
        run_seconds, elapsed = reps[len(reps) // 2]
        count = engine.metrics.total_messages
        entry = {
            "seconds": elapsed,
            "run_seconds": run_seconds,
            "messages": count,
            "us_per_message": (
                run_seconds / count * 1e6 if count else float("nan")
            ),
            "fifo_violations": fifo,
        }
        if len(reps) > 1:
            entry["run_seconds_all"] = [round(r, 4) for r, _ in reps]
        if base is None:
            base = run_seconds
        entry["speedup_vs_1"] = base / run_seconds if run_seconds else float("inf")
        result["workers"][str(workers)] = entry
        total += elapsed_total
        messages += count
    result["seconds"] = total
    result["messages"] = messages
    result["max_workers"] = max(worker_counts)
    result["speedup_at_max"] = result["workers"][str(max(worker_counts))]["speedup_vs_1"]
    return result


def _frame_entries():
    """A representative mp DATA flush batch: the hot cross-pipe shape.

    Remote traffic in the tenant workloads is dominated by aggregation
    emissions — small batches (key_count=8 partitions) with a priority
    context — plus the piggybacked cumulative acks and reply contexts of
    the quantum.  Frame-encoding gains are measured on that shape, not on
    giant batches where array bytes dominate either encoding."""
    import numpy as np

    from repro.core.context import PriorityContext, ReplyContext
    from repro.dataflow.events import EventBatch
    from repro.dataflow.messages import Message
    from repro.dataflow.operators import OpAddress

    entries = []
    for i in range(16):
        n = 8
        batch = EventBatch(
            np.linspace(float(i), float(i) + 1.0, n),
            np.arange(n, dtype=np.float64),
            np.arange(n, dtype=np.int64),
            arrival_time=float(i), source_id=i % 4, times_sorted=True,
        )
        msg = Message(
            target=OpAddress(f"job{i % 4}", "agg1", 0),
            batch=batch, p=float(i), t=float(i), deps_arrival=float(i),
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
            ReplyContext(c_m=1e-4, c_path=3e-4, queueing_delay=1e-3,
                         mailbox_size=i),
        ))
    return entries


def bench_frames(frames: int = 2_000, repeats: int = 3) -> dict:
    """Binary DATA-frame codec vs whole-object pickle (encode + decode).

    Times the steady state: interning definitions are exchanged once per
    channel up front (as on a live pipe), then every frame is fixed-layout
    struct packing against pickle's per-object traversal of the same
    entries.  ``speedup_vs_pickle`` is the acceptance number (>= 3x)."""
    import pickle

    from repro.runtime.mp.frames import DATA, DataCodec

    entries = _frame_entries()

    def run_binary() -> None:
        sender = DataCodec()
        receiver = DataCodec()
        receiver.decode_data(sender.encode_data(entries))  # definitions
        for _ in range(frames):
            receiver.decode_data(sender.encode_data(entries))

    def run_pickle() -> None:
        for _ in range(frames):
            pickle.loads(
                pickle.dumps((DATA, entries), protocol=pickle.HIGHEST_PROTOCOL)
            )

    binary_seconds = _best_of(run_binary, repeats)
    pickle_seconds = _best_of(run_pickle, repeats)
    steady = DataCodec()
    probe = DataCodec()
    probe_bytes = steady.encode_data(entries)  # first frame: with defs
    probe.decode_data(probe_bytes)
    steady_bytes = steady.encode_data(entries)
    return {
        "kind": "micro",
        "unit": "us/frame",
        "backend": "mp",
        "seconds": binary_seconds,
        "ops": frames,
        "entries_per_frame": len(entries),
        "binary_us_per_frame": binary_seconds / frames * 1e6,
        "pickle_us_per_frame": pickle_seconds / frames * 1e6,
        "bytes_binary": len(steady_bytes),
        "bytes_pickle": len(
            pickle.dumps((DATA, entries), protocol=pickle.HIGHEST_PROTOCOL)
        ),
        "speedup_vs_pickle": (
            pickle_seconds / binary_seconds if binary_seconds else float("inf")
        ),
    }


# ----------------------------------------------------------------------
# microbenches (kernel + scheduler data structures)
# ----------------------------------------------------------------------

def bench_kernel_events(n: int = 200_000, chains: int = 64, repeats: int = 3) -> dict:
    """Steady-state schedule-and-fire throughput of the kernel event path.

    ``chains`` self-rescheduling callbacks keep a small, constant-size heap
    — the engine's pending set is the completions and deliveries currently
    in flight, not the whole workload — so the timing isolates the per-event
    cost the engine actually pays: one schedule (the allocation-lean
    ``schedule_fast`` when the kernel provides it, else ``schedule``) plus
    one dispatch.
    """
    from repro.sim.kernel import Simulator

    def run() -> None:
        sim = Simulator()
        schedule = getattr(sim, "schedule_fast", None) or sim.schedule
        remaining = n

        def tick() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining > 0:
                schedule(1e-6, tick)

        for _ in range(chains):
            schedule(1e-6, tick)
        sim.run()

    seconds = _best_of(run, repeats)
    return {
        "kind": "micro",
        "unit": "ns/op",
        "seconds": seconds,
        "ops": n,
        "ns_per_op": seconds / n * 1e9,
    }


class _OpStub:
    __slots__ = ("mailbox", "busy", "queue_token", "queued_key", "queued_seq", "in_queue")

    def __init__(self, mailbox):
        self.mailbox = mailbox
        self.busy = False
        self.queue_token = -1
        self.queued_key = None
        self.queued_seq = 0
        self.in_queue = False


def _pc_messages(n: int):
    from repro.core.context import PriorityContext
    from repro.dataflow.messages import Message

    return [
        Message(
            target=None,
            pc=PriorityContext(pri_local=float(i % 97), pri_global=float(i % 89)),
        )
        for i in range(n)
    ]


def bench_scheduler_fanin(n: int = 100_000, operators: int = 32, repeats: int = 3) -> dict:
    """Fan-in notify churn on the Cameo run queue, isolated.

    Every operator's mailbox is pre-filled (untimed) with equal-priority
    messages and queued once; the timed section then delivers ``n``
    notifies round-robin to the already-queued operators — the head
    priority key never changes, the textbook fan-in pattern — and finally
    drains the queue.  On the seed scheduler each notify pushes a fresh
    heap entry and the drain wades through all of them; with the
    key-unchanged skip a notify is O(1) and the drain pops one live entry
    per operator.
    """
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

    seconds = min(run_once() for _ in range(repeats))
    return {
        "kind": "micro",
        "unit": "ns/op",
        "seconds": seconds,
        "ops": n,
        "ns_per_op": seconds / n * 1e9,
    }


def bench_scheduler_churn(n: int = 100_000, operators: int = 64, repeats: int = 3) -> dict:
    """Push/notify/pop cycle across many operators (fig12-style churn)."""
    from repro.core.scheduler import CameoRunQueue

    messages = _pc_messages(n)

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

    seconds = _best_of(run, repeats)
    return {
        "kind": "micro",
        "unit": "ns/op",
        "seconds": seconds,
        "ops": n,
        "ns_per_op": seconds / n * 1e9,
    }


def bench_message_alloc(n: int = 200_000, repeats: int = 3) -> dict:
    """Message + PriorityContext construction (one per hop on the hot path)."""
    from repro.core.context import PriorityContext
    from repro.dataflow.messages import Message

    def run() -> None:
        for i in range(n):
            Message(
                target=None,
                p=float(i),
                t=float(i),
                deps_arrival=float(i),
                pc=PriorityContext(pri_local=float(i), pri_global=float(i)),
                channel_index=0,
            )

    seconds = _best_of(run, repeats)
    return {
        "kind": "micro",
        "unit": "ns/op",
        "seconds": seconds,
        "ops": n,
        "ns_per_op": seconds / n * 1e9,
    }


def bench_state_store(windows: int = 16, keys: int = 2048, repeats: int = 5) -> dict:
    """Snapshot / restore / split+merge cost of a windowed-operator store.

    Builds one :class:`~repro.state.store.AggregateStateStore` shaped like
    a loaded aggregation instance (``windows`` pending windows x ``keys``
    accumulators each) and times the three state-layer primitives the
    runtime pays for: a checkpoint sweep serializes (``snapshot``), a
    fail-over deserializes (``restore``), and a stage rescale partitions
    and folds back (``split`` + ``merge``).  Costs are reported per key —
    the store's unit of migration."""
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
    snapshot_seconds = _best_of(lambda: store.snapshot(), repeats)
    fresh = AggregateStateStore()
    restore_seconds = _best_of(lambda: fresh.restore(data), repeats)

    def split_merge() -> None:
        shard = store.split(lambda key: key % 2 == 1)
        store.merge(shard)

    split_merge_seconds = _best_of(split_merge, repeats)
    total_keys = windows * keys
    seconds = snapshot_seconds + restore_seconds + split_merge_seconds
    return {
        "kind": "micro",
        "unit": "ns/key",
        "seconds": seconds,
        "ops": total_keys,
        "windows": windows,
        "keys_per_window": keys,
        "snapshot_bytes": len(data),
        "approx_size": store.approx_size(),
        "snapshot_ns_per_key": snapshot_seconds / total_keys * 1e9,
        "restore_ns_per_key": restore_seconds / total_keys * 1e9,
        "split_merge_ns_per_key": split_merge_seconds / total_keys * 1e9,
        "ns_per_op": seconds / total_keys * 1e9,
    }


def bench_partition_recovery(
    cut_lengths=(2.0, 4.0, 6.0), duration: float = 16.0, seed: int = 4,
) -> dict:
    """Time-to-reconcile after a healed partition, vs backlog size.

    One minority cut (node 2 isolated from {0, 1}) of growing length: the
    longer the cut, the more go-back-N backlog piles up on the severed
    channels and the longer the post-heal replay takes.  Two simulated-time
    measurements per point, both read off the fault timeline and the
    reliable-delivery ledger:

    * ``reconcile_s`` — heal instant to the reconciliation migrating the
      evacuated operators home (the control-plane half),
    * ``drain_s`` — heal instant to the live backlog emptying
      (``outstanding_total() == 0``; the data-plane half, sampled on a
      50 ms probe so the figure is deterministic).

    ``seconds`` (wall clock, all points end-to-end) is what the regression
    harness compares across revisions."""
    from repro.experiments.ext_partition import _build_and_drive
    from repro.sim.faults import FaultSchedule, Partition

    result: dict = {
        "kind": "workload", "unit": "s", "backend": "sim",
        "nodes": 3, "workers_per_node": 2, "cuts": {},
    }
    start_all = time.perf_counter()
    for cut in cut_lengths:
        heal_at = 0.3 * duration + cut
        schedule = FaultSchedule(
            partitions=[Partition(start=0.3 * duration, end=heal_at,
                                  groups=[(2,)])],
        )
        engine = _build_and_drive("cameo", duration, seed, schedule)
        drained_at: list = []

        def probe(engine=engine, drained_at=drained_at):
            if engine.reliable.outstanding_total() == 0:
                drained_at.append(engine.sim.now)
            else:  # keep sampling; the run horizon bounds the probe chain
                engine.sim.schedule_at(engine.sim.now + 0.05, probe)

        engine.sim.schedule_at(heal_at, probe)
        engine.run(until=duration + 8.0)
        heals = engine.fault_timeline.of_kind("heal")
        reconciles = engine.fault_timeline.of_kind("reconcile")
        report = engine.metrics.fault_report()
        result["cuts"][str(cut)] = {
            "reconcile_s": (reconciles[0][0] - heals[0][0])
            if heals and reconciles else float("nan"),
            "drain_s": (drained_at[0] - heal_at)
            if drained_at else float("nan"),
            "backlog_drops": report["partitions"]["messages_dropped_partition"],
            "retransmissions": report["retransmissions"],
        }
    result["seconds"] = time.perf_counter() - start_all
    return result


def bench_mp_scaling_spin(
    duration: float = 6.0, seed: int = 4, worker_counts=(1, 2, 4),
    repeats: int = 3,
) -> dict:
    """The CPU-bound mp scaling series (``mp_cost_mode="spin"``).

    Uses a compute-dominant mix (8000 tuples/message multiplies the
    sampled per-message cost ~6x) so the series measures how the runtime
    scales *execution*, not how fast it shuffles near-empty messages —
    the operating point a CPU-bound scaling claim is about.  A tight
    heartbeat (20 ms) keeps the distributed-quiescence tail from eating
    into the short high-worker-count runs, and median-of-``repeats``
    per point absorbs host-steal transients that would otherwise skew
    the scaling ratio."""
    return bench_mp_scaling(
        duration=duration, seed=seed, worker_counts=worker_counts,
        cost_mode="spin", tuples_per_msg=8000, heartbeat_interval=0.02,
        repeats=repeats,
    )


#: bench name -> (factory, kwargs for --quick mode)
BENCHES: dict = {
    "fig08_multi_tenant": (bench_fig08_multi_tenant, {"duration": 5.0}),
    "fig07_single_tenant": (bench_fig07_single_tenant, {"duration": 5.0}),
    "mp_scaling": (bench_mp_scaling, {"duration": 3.0, "worker_counts": (1, 2)}),
    "mp_scaling_spin": (
        bench_mp_scaling_spin,
        {"duration": 3.0, "worker_counts": (1, 2), "repeats": 1},
    ),
    "frames": (bench_frames, {"frames": 300, "repeats": 2}),
    "kernel_events": (bench_kernel_events, {"n": 20_000, "repeats": 2}),
    "scheduler_fanin": (bench_scheduler_fanin, {"n": 10_000, "repeats": 2}),
    "scheduler_churn": (bench_scheduler_churn, {"n": 10_000, "repeats": 2}),
    "message_alloc": (bench_message_alloc, {"n": 20_000, "repeats": 2}),
    "state_store": (bench_state_store, {"windows": 4, "keys": 256, "repeats": 2}),
    "partition_recovery": (
        bench_partition_recovery,
        {"cut_lengths": (2.0,), "duration": 8.0},
    ),
}

#: which execution backend each bench exercises (default: "sim");
#: ``--backend`` selects the subset to run
BENCH_BACKEND: dict = {
    "mp_scaling": "mp", "mp_scaling_spin": "mp", "frames": "mp",
}

#: benches the acceptance gate aggregates ("scheduler/kernel microbenches");
#: message_alloc is reported alongside but measures allocation, not the
#: scheduler or kernel data structures
MICRO_BENCHES = ("kernel_events", "scheduler_fanin", "scheduler_churn")


def run_benches(
    label: str, quick: bool = False, only: Optional[list[str]] = None,
    backend: str = "sim",
) -> dict:
    report: dict = {
        "label": label,
        "quick": quick,
        "backend": backend,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "benches": {},
    }
    for name, (factory, quick_kwargs) in BENCHES.items():
        if only:
            if name not in only:  # explicit names override the backend filter
                continue
        elif backend != "all" and BENCH_BACKEND.get(name, "sim") != backend:
            continue
        kwargs = quick_kwargs if quick else {}
        print(f"  [{name}] ...", end="", flush=True)
        result = factory(**kwargs)
        report["benches"][name] = result
        per_op = result.get("ns_per_op")
        detail = f"{per_op:.0f} ns/op" if per_op else f"{result['seconds']:.2f}s"
        print(f" {result['seconds']:.3f}s ({detail})")
    return report


def compare_reports(baseline: dict, current: dict) -> tuple[str, dict]:
    """Render a speedup table of ``current`` against ``baseline``.

    Returns the rendered text and a summary dict with the aggregate
    workload and microbench speedups (baseline seconds / current seconds).
    """
    rows = []
    speedups: dict[str, float] = {}
    for name, entry in current["benches"].items():
        base = baseline.get("benches", {}).get(name)
        if base is None:
            rows.append((name, entry["seconds"], None, None))
            continue
        speedup = base["seconds"] / entry["seconds"] if entry["seconds"] else float("inf")
        speedups[name] = speedup
        rows.append((name, entry["seconds"], base["seconds"], speedup))

    lines = [
        f"bench comparison: {current['label']} vs {baseline.get('label', '?')}",
        f"{'bench':<24} {'current':>10} {'baseline':>10} {'speedup':>9}",
    ]
    if bool(baseline.get("quick")) != bool(current.get("quick")):
        lines.insert(
            1,
            "WARNING: one side ran with --quick (reduced sizes) — "
            "speedups below are not comparable",
        )
    for name, cur, base, speedup in rows:
        if base is None:
            lines.append(f"{name:<24} {cur:>9.3f}s {'-':>10} {'-':>9}")
        else:
            lines.append(f"{name:<24} {cur:>9.3f}s {base:>9.3f}s {speedup:>8.2f}x")

    def _geomean(values: list[float]) -> float:
        product = 1.0
        for value in values:
            product *= value
        return product ** (1.0 / len(values))

    summary = {}
    workload = speedups.get("fig08_multi_tenant")
    if workload is not None:
        summary["fig08_speedup"] = workload
        lines.append(f"fig08 multi-tenant workload speedup: {workload:.2f}x")
    micro = [speedups[n] for n in MICRO_BENCHES if n in speedups]
    if micro:
        geomean = _geomean(micro)
        summary["micro_geomean_speedup"] = geomean
        lines.append(f"scheduler/kernel microbench speedup (geomean): {geomean:.2f}x")
    if speedups:
        # the drift detector: a uniform environmental slowdown moves every
        # ratio (including pure-Python microbenches) together, a code
        # regression moves specific benches away from the pack
        overall = _geomean(list(speedups.values()))
        summary["geomean_speedup"] = overall
        lines.append(
            f"overall speedup (geomean of {len(speedups)} benches): {overall:.2f}x"
        )
    return "\n".join(lines), summary


def main(argv: Optional[list[str]] = None) -> int:
    import argparse
    import pathlib

    parser = argparse.ArgumentParser(
        prog="repro.bench", description="Hot-path benchmark-regression harness."
    )
    parser.add_argument("--label", default="dev", help="label; writes BENCH_<label>.json")
    parser.add_argument("--out", default=".", metavar="DIR", help="output directory")
    parser.add_argument(
        "--compare", default=None, metavar="JSON", nargs="+",
        help=(
            "one BENCH_*.json: run the benches and compare against it; "
            "two: compare B against A without running anything "
            "(per-bench ratios + geomean)"
        ),
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced sizes (CI smoke run)"
    )
    parser.add_argument(
        "--backend", choices=("sim", "mp", "all"), default="sim",
        help="which execution backend's benches to run (default: sim)",
    )
    parser.add_argument(
        "--bench", action="append", default=None, metavar="NAME",
        help=f"run only the named bench(es); known: {', '.join(BENCHES)}",
    )
    args = parser.parse_args(argv)

    if args.bench:
        unknown = [b for b in args.bench if b not in BENCHES]
        if unknown:
            parser.error(f"unknown bench(es): {', '.join(unknown)}")
    if args.compare:
        if len(args.compare) > 2:
            parser.error("--compare takes at most two BENCH_*.json files")
        for path in args.compare:
            if not pathlib.Path(path).is_file():
                parser.error(f"--compare file not found: {path}")

    if args.compare and len(args.compare) == 2:
        # pure comparison: B vs A, no benches run, nothing written
        baseline = json.loads(pathlib.Path(args.compare[0]).read_text())
        current = json.loads(pathlib.Path(args.compare[1]).read_text())
        text, _ = compare_reports(baseline, current)
        print(text)
        return 0

    print(
        f"running benches (label={args.label}, quick={args.quick}, "
        f"backend={args.backend})"
    )
    report = run_benches(
        args.label, quick=args.quick, only=args.bench, backend=args.backend
    )

    out_path = pathlib.Path(args.out) / f"BENCH_{args.label}.json"
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")

    if args.compare:
        baseline = json.loads(pathlib.Path(args.compare[0]).read_text())
        text, _ = compare_reports(baseline, report)
        print()
        print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via repro.cli
    import sys

    sys.exit(main())
