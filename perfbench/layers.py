"""Which functions are spans of which layer, and the per-layer metrics.

A layer is a module path under ``src/repro/``.  :func:`install` puts the
tracer's wrappers on the class attributes of each layer's functions;
:func:`layer_metrics` turns the merged aggregates of one traced rep into
the per-layer numbers.  Every metric is reported on every workload; a
layer the workload bypasses reads zero.
"""

from __future__ import annotations

import pathlib
import pickle

import numpy as np

from perfbench import SRC
from perfbench.measure import Rep, group_latencies
from perfbench.tracer import Tracer, merge


def install(tracer: Tracer, dump_dir: pathlib.Path | None = None) -> None:
    """Wrap the layer functions.  Call before building any engine."""
    import multiprocessing.connection as mpc
    import multiprocessing.process

    from repro.core.converter import ContextConverter
    from repro.core.profiler import CostProfiler
    from repro.core.scheduler import CameoRunQueue, FifoMailbox, PriorityMailbox
    from repro.dataflow import operators
    from repro.dataflow.events import EventBatch
    from repro.metrics.collectors import JobMetrics, MetricsHub
    from repro.runtime import recovery
    from repro.runtime.baselines import FifoRunQueue
    from repro.runtime.engine import StreamEngine
    from repro.runtime.lifecycle import OperatorLifecycle
    from repro.runtime.mp import coordinator, worker
    from repro.runtime.mp import transport as mp_transport
    from repro.runtime.mp.frames import DataCodec
    from repro.runtime.mp.ingest import IngestDriver
    from repro.runtime.mp.reliable import MpReliableDelivery
    from repro.runtime.node import NodeRuntime
    from repro.runtime.topology import TopologyBuilder
    from repro.runtime.transport import Transport
    from repro.sim.kernel import Simulator
    from repro.state.store import KeyedStateStore

    from perfbench.inputs import _Feeder

    patch, methods = tracer.patch, tracer.patch_methods
    patch(StreamEngine, "run", "runtime.engine")
    methods(Simulator, "sim.kernel",
            ["run", "schedule", "schedule_at", "schedule_fast", "schedule_at_fast"])
    patch(Simulator, "try_advance", "sim.kernel", lambda args, hit: 1 if hit else 0)
    methods(ContextConverter, "core.converter",
            ["build", "prepare_reply", "process_reply"])
    methods(CostProfiler, "core.profiler", ["record", "estimate"])
    for queue in (CameoRunQueue, FifoRunQueue):
        layer = "core.scheduler" if queue is CameoRunQueue else "runtime.baselines"
        methods(queue, layer, ["notify", "requeue", "should_swap"])
        patch(queue, "pop", layer, lambda args, op: 1 if op is None else 0)
    for mailbox in (PriorityMailbox, FifoMailbox):
        methods(mailbox, "core.scheduler", ["push", "pop"])
    methods(NodeRuntime, "runtime.node",
            ["wake_idle_worker", "_worker_wake", "_start_message", "_complete_message"])
    methods(Transport, "runtime.transport",
            ["ingest", "deliver", "route_emissions", "_send", "send_reply", "rewire"])
    for cls in vars(operators).values():
        if isinstance(cls, type) and issubclass(cls, operators.Operator) \
                and "on_message" in vars(cls):
            patch(cls, "on_message", "dataflow.operators",
                  lambda args, _: args[1].tuple_count)
    methods(operators.Operator, "dataflow.operators",
            ["state_snapshot", "state_restore"])
    patch(EventBatch, "select", "dataflow.events")
    methods(JobMetrics, "metrics.collectors",
            ["record_output", "queueing_stat", "execution_stat"])
    methods(MetricsHub, "metrics.collectors",
            ["record_worker_busy", "record_timeline_point"])
    for cls in (recovery.ReliableDelivery, recovery.CheckpointManager,
                recovery.FailureDetector, recovery.RecoveryManager):
        methods(cls, "runtime.recovery")
    methods(KeyedStateStore, "state.store", ["snapshot", "restore"])
    methods(OperatorLifecycle, "runtime.lifecycle")
    patch(TopologyBuilder, "build", "runtime.topology")
    patch(_Feeder, "fire", "workloads.ingest")

    # -- mp backend: the same wrappers, inherited by the forked workers --
    patch(DataCodec, "encode_data", "runtime.mp.frames",
          lambda args, frame: len(frame))
    patch(DataCodec, "decode_data", "runtime.mp.frames",
          lambda args, entries: len(entries))
    patch(DataCodec, "_raw", "runtime.mp.frames")
    for module in (worker, coordinator, mp_transport):
        for name in ("send_frame", "recv_frame"):
            if hasattr(module, name):
                patch(module, name, "runtime.mp.frames")
    methods(mpc._ConnectionBase, "pipe", ["send_bytes", "recv_bytes", "poll"])
    for module in (worker, coordinator):
        patch(module, "conn_wait", "wait")
    methods(mp_transport.ProcessTransport, "runtime.mp.transport")
    methods(MpReliableDelivery, "runtime.mp.reliable")
    patch(IngestDriver, "pump", "runtime.mp.ingest")
    methods(worker.MpWorker, "runtime.mp.worker",
            ["_drain", "_dispatch_quantum", "_execute", "_safe_flush",
             "_heartbeat", "_idle"])
    methods(coordinator.MpCoordinator, "runtime.mp.coordinator",
            ["run", "_orchestrate", "_feed", "_drain_control", "_collect_reports",
             "_merge"])
    patch(multiprocessing.process.BaseProcess, "start", "runtime.mp.coordinator")
    patch(worker.MpWorker, "run", "runtime.mp.worker")

    # a worker is a fresh trace: it drops what the fork copied when it
    # starts, and dumps its own aggregates before it reports — the
    # coordinator may terminate the process right after the report
    worker_main, report = coordinator.worker_main, worker.MpWorker._report

    def fresh_worker_main(*args, **kwargs):
        tracer.reset()
        return worker_main(*args, **kwargs)

    def dumping_report(self):
        if tracer.active and dump_dir is not None:
            tracer.dump(dump_dir / f"worker-{self._node_id}.pickle")
        return report(self)

    tracer.replace(coordinator, "worker_main", fresh_worker_main)
    tracer.replace(worker.MpWorker, "_report", dumping_report)


def collect(tracer: Tracer, dump_dir: pathlib.Path | None) -> tuple[dict, dict]:
    """This process's aggregates merged with every worker dump.

    Returns ``(merged, per_process)``; the dumps are consumed."""
    per_process = {"main": tracer.aggregates()}
    if dump_dir is not None:
        for path in sorted(dump_dir.glob("worker-*.pickle")):
            with open(path, "rb") as handle:
                per_process[path.stem] = pickle.load(handle)
            path.unlink()
    merged: dict = {}
    for table in per_process.values():
        merge(merged, table)
    return merged, per_process


class _Table:
    """Read access to merged aggregates by layer / function."""

    def __init__(self, merged: dict):
        self.rows = merged

    def layer(self, layer: str, column: int, only=None) -> float:
        return sum(
            row[column] for (name, label), row in self.rows.items()
            if name == layer and (only is None or label in only)
        )

    def calls(self, layer: str, only=None) -> float:
        return self.layer(layer, 0, only)

    def self_us(self, layer: str, only=None) -> float:
        return self.layer(layer, 1, only) / 1e3

    def total_us(self, layer: str, only=None) -> float:
        return self.layer(layer, 2, only) / 1e3

    def probed(self, layer: str, only=None) -> float:
        return self.layer(layer, 3, only)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(merged: dict, rep: Rep) -> dict:
    """Per-layer metrics of one traced rep (``name -> value``)."""
    t = _Table(merged)
    msgs = rep.messages
    facts = rep.facts
    out = {}
    for layer in ("sim.kernel", "core.converter", "core.profiler", "core.scheduler",
                  "runtime.node", "runtime.transport", "dataflow.operators",
                  "metrics.collectors", "runtime.recovery", "runtime.mp.transport",
                  "runtime.mp.reliable"):
        out[f"{layer}.self_us_per_msg"] = t.self_us(layer) / msgs
    out["sim.kernel.events_per_msg"] = facts.get("fired_events", 0) / msgs
    out["sim.kernel.inline_advance_ratio"] = _ratio(
        t.probed("sim.kernel", {"Simulator.try_advance"}),
        t.calls("sim.kernel", {"Simulator.try_advance"}))
    out["core.converter.builds_per_msg"] = (
        t.calls("core.converter", {"ContextConverter.build"}) / msgs)
    out["core.scheduler.ops_per_msg"] = t.calls("core.scheduler") / msgs
    out["core.scheduler.empty_pop_ratio"] = _ratio(
        t.probed("core.scheduler", {"CameoRunQueue.pop"}),
        t.calls("core.scheduler", {"CameoRunQueue.pop"}))
    out["runtime.transport.sends_per_msg"] = (
        t.calls("runtime.transport", {"Transport._send"}) / msgs)
    out["runtime.transport.replies_per_msg"] = (
        t.calls("runtime.transport", {"Transport.send_reply"}) / msgs)
    out["dataflow.operators.tuples_per_msg"] = t.probed("dataflow.operators") / msgs
    out["dataflow.events.select_us_per_msg"] = t.self_us("dataflow.events") / msgs

    faults = facts.get("fault_report", {})
    out["runtime.recovery.retransmit_ratio"] = _ratio(
        faults.get("retransmissions", 0),
        t.calls("runtime.recovery", {"ReliableDelivery.send"}))
    out["runtime.recovery.duplicates_dropped"] = faults.get("duplicates_dropped", 0)
    out["runtime.recovery.replayed_msgs"] = faults.get("messages_replayed_recovery", 0)
    detect = faults.get("mean_detection_latency", 0.0)
    out["runtime.recovery.detect_ms"] = detect * 1e3 if detect == detect else 0.0
    out["state.store.snapshot_us_per_ckpt"] = _ratio(
        t.total_us("state.store", {"KeyedStateStore.snapshot"}),
        t.calls("state.store", {"KeyedStateStore.snapshot"}))
    out["state.store.checkpoint_bytes"] = faults.get("checkpoint_bytes", 0)
    out["state.store.restores"] = faults.get("state_restores", 0)
    out["runtime.topology.build_s"] = _ratio(
        t.total_us("runtime.topology"), t.calls("runtime.topology")) / 1e6
    out["workloads.ingest_us_per_msg"] = t.self_us("workloads.ingest") / msgs

    encode, decode = {"DataCodec.encode_data"}, {"DataCodec.decode_data"}
    frames_out = t.calls("runtime.mp.frames", encode)
    frames_in = t.calls("runtime.mp.frames", decode)
    entries = t.probed("runtime.mp.frames", decode)
    out["runtime.mp.frames.encode_us_per_frame"] = _ratio(
        t.total_us("runtime.mp.frames", encode), frames_out)
    out["runtime.mp.frames.decode_us_per_frame"] = _ratio(
        t.total_us("runtime.mp.frames", decode), frames_in)
    out["runtime.mp.frames.bytes_per_frame"] = _ratio(
        t.probed("runtime.mp.frames", encode), frames_out)
    out["runtime.mp.frames.entries_per_frame"] = _ratio(entries, frames_in)
    out["runtime.mp.frames.raw_fallback_ratio"] = _ratio(
        t.calls("runtime.mp.frames", {"DataCodec._raw"}), entries)
    out["runtime.mp.transport.frames_per_msg"] = frames_out / msgs
    out["runtime.mp.transport.pipe_send_us_per_frame"] = _ratio(
        t.self_us("pipe", {"_ConnectionBase.send_bytes"}),
        t.calls("pipe", {"_ConnectionBase.send_bytes"}))
    out["runtime.mp.transport.pipe_recv_us_per_frame"] = _ratio(
        t.self_us("pipe", {"_ConnectionBase.recv_bytes"}),
        t.calls("pipe", {"_ConnectionBase.recv_bytes"}))
    out["runtime.mp.transport.flush_us_per_msg"] = (
        t.self_us("runtime.mp.transport", {"ProcessTransport.flush"}) / msgs)
    out["runtime.mp.reliable.acks_per_msg"] = (
        t.calls("runtime.mp.reliable", {"MpReliableDelivery.on_ack"}) / msgs)
    info = facts.get("info")
    if info is None:
        return out  # sim: what a run does not report is printed as zero
    reports = info["reports"].values()
    worker_wall = info["wall_time"] * len(reports)
    # sampled costs are only time spent when the cost mode realises them
    busy = (sum(stats["busy_time"] for stats in reports)
            if info["cost_mode"] != "none" else 0.0)
    slept_us = busy * 1e6 if info["cost_mode"] == "sleep" else 0.0
    dispatch = {"MpWorker._dispatch_quantum", "MpWorker._execute"}
    out["runtime.mp.reliable.retransmit_ratio"] = _ratio(
        facts["retransmissions"],
        t.calls("runtime.mp.reliable", {"MpReliableDelivery.send"}))
    out["runtime.mp.worker.dispatch_us_per_msg"] = (
        t.self_us("runtime.mp.worker", dispatch) - slept_us) / msgs
    out["runtime.mp.worker.busy_fraction"] = busy / worker_wall
    out["runtime.mp.worker.wait_share"] = (
        t.total_us("wait", {"worker.conn_wait"}) / 1e6 / worker_wall)
    out["runtime.mp.worker.wakeups_per_s"] = (
        t.calls("wait", {"worker.conn_wait"}) / worker_wall)
    out["runtime.mp.coordinator.fork_s"] = (
        t.total_us("runtime.mp.coordinator", {"BaseProcess.start"}) / 1e6)
    return out


def attributed_share(merged: dict) -> float:
    """Share of ``engine.run`` wall time spent inside a named layer's span.

    sim: everything under ``StreamEngine.run`` but its own statements; mp
    workers: everything under ``MpWorker.run`` likewise."""
    t = _Table(merged)
    roots = {"StreamEngine.run", "MpWorker.run"}
    total = (t.total_us("runtime.engine", roots)
             + t.total_us("runtime.mp.worker", roots))
    outside = (t.self_us("runtime.engine", roots)
               + t.self_us("runtime.mp.worker", roots))
    return 1.0 - _ratio(outside, total)


def paced_extras(reps: list[Rep]) -> dict:
    """mp latency facts read off untraced paced reps."""
    late = np.asarray([x for rep in reps for x in rep.facts.get("lateness", [])])
    ls = group_latencies(reps, "LS")
    return {
        "runtime.mp.ingest.lateness_p90_ms":
            float(np.percentile(late, 90)) * 1e3 if late.size else 0.0,
        "runtime.mp.ls_p90_ms": float(np.percentile(ls, 90)) * 1e3 if ls.size else 0.0,
    }


def repo_metrics() -> dict:
    """The "least code" trend line: source lines and config fields."""
    import dataclasses

    from repro.runtime.config import EngineConfig

    loc = sum(
        sum(1 for _ in path.open(encoding="utf-8"))
        for path in (SRC / "repro").rglob("*.py")
    )
    return {"repo.src_loc": loc,
            "repo.engine_config_fields": len(dataclasses.fields(EngineConfig))}
