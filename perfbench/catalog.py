"""Every metric the benchmark prints: name, unit, direction, bound.

``BENCHMARK.json`` at the repository root lists exactly these (a test
keeps the two in step).  An end-to-end metric is reported on every
workload and carries the bound by which it may worsen before a change
counts as a regression; per-layer metrics have no bound.
"""

from __future__ import annotations

#: (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_us_per_msg", "us", "lower", 0.25),
    ("cpu_us_per_msg", "us", "lower", 0.25),
    ("ls_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: (name, unit, better)
PER_LAYER = [
    ("sim.kernel.self_us_per_msg", "us", "lower"),
    ("sim.kernel.events_per_msg", "count", "lower"),
    ("sim.kernel.inline_advance_ratio", "share", "higher"),
    ("core.converter.self_us_per_msg", "us", "lower"),
    ("core.converter.builds_per_msg", "count", "lower"),
    ("core.profiler.self_us_per_msg", "us", "lower"),
    ("core.scheduler.self_us_per_msg", "us", "lower"),
    ("core.scheduler.ops_per_msg", "count", "lower"),
    ("core.scheduler.empty_pop_ratio", "share", "lower"),
    ("runtime.node.self_us_per_msg", "us", "lower"),
    ("runtime.transport.self_us_per_msg", "us", "lower"),
    ("runtime.transport.sends_per_msg", "count", "lower"),
    ("runtime.transport.replies_per_msg", "count", "lower"),
    ("dataflow.operators.self_us_per_msg", "us", "lower"),
    ("dataflow.operators.tuples_per_msg", "count", "lower"),
    ("dataflow.events.select_us_per_msg", "us", "lower"),
    ("metrics.collectors.self_us_per_msg", "us", "lower"),
    ("runtime.recovery.self_us_per_msg", "us", "lower"),
    ("runtime.recovery.retransmit_ratio", "share", "lower"),
    ("runtime.recovery.duplicates_dropped", "count", "lower"),
    ("runtime.recovery.replayed_msgs", "count", "lower"),
    ("runtime.recovery.detect_ms", "ms", "lower"),
    ("state.store.snapshot_us_per_ckpt", "us", "lower"),
    ("state.store.checkpoint_bytes", "bytes", "lower"),
    ("state.store.restores", "count", "lower"),
    ("runtime.topology.build_s", "s", "lower"),
    ("workloads.ingest_us_per_msg", "us", "lower"),
    ("runtime.mp.frames.encode_us_per_frame", "us", "lower"),
    ("runtime.mp.frames.decode_us_per_frame", "us", "lower"),
    ("runtime.mp.frames.bytes_per_frame", "bytes", "lower"),
    ("runtime.mp.frames.entries_per_frame", "count", "higher"),
    ("runtime.mp.frames.raw_fallback_ratio", "share", "lower"),
    ("runtime.mp.transport.self_us_per_msg", "us", "lower"),
    ("runtime.mp.transport.frames_per_msg", "count", "lower"),
    ("runtime.mp.transport.pipe_send_us_per_frame", "us", "lower"),
    ("runtime.mp.transport.pipe_recv_us_per_frame", "us", "lower"),
    ("runtime.mp.transport.flush_us_per_msg", "us", "lower"),
    ("runtime.mp.reliable.self_us_per_msg", "us", "lower"),
    ("runtime.mp.reliable.acks_per_msg", "count", "lower"),
    ("runtime.mp.reliable.retransmit_ratio", "share", "lower"),
    ("runtime.mp.worker.dispatch_us_per_msg", "us", "lower"),
    ("runtime.mp.worker.busy_fraction", "share", "higher"),
    ("runtime.mp.worker.wait_share", "share", "higher"),
    ("runtime.mp.worker.wakeups_per_s", "1/s", "lower"),
    ("runtime.mp.ingest.lateness_p90_ms", "ms", "lower"),
    ("runtime.mp.ls_p90_ms", "ms", "lower"),
    ("runtime.mp.coordinator.cpu_s", "s", "lower"),
    ("runtime.mp.coordinator.fork_s", "s", "lower"),
    ("runtime.mp.cross_process_cost_ratio", "ratio", "lower"),
    ("sim.kernel.isolated_ns_per_event", "ns", "lower"),
    ("core.scheduler.fanin_ns_per_op", "ns", "lower"),
    ("core.scheduler.churn_ns_per_op", "ns", "lower"),
    ("dataflow.messages.alloc_ns_per_msg", "ns", "lower"),
    ("runtime.mp.frames.codec_us_per_frame", "us", "lower"),
    ("state.store.snapshot_ns_per_key", "ns", "lower"),
    ("state.store.restore_ns_per_key", "ns", "lower"),
    ("state.store.split_merge_ns_per_key", "ns", "lower"),
    ("obs.record_trace_overhead_ratio", "ratio", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.attributed_share", "share", "higher"),
    ("repo.src_loc", "lines", "lower"),
    ("repo.engine_config_fields", "count", "lower"),
    # user-visible numbers that do not exist on every workload, so they
    # cannot be bounded end-to-end metrics (README, "what is not bounded")
    ("e2e.ls_p90_ms", "ms", "lower"),
    ("e2e.ls_success", "share", "higher"),
    ("e2e.ba_tuples_per_s", "tuples/s", "higher"),
    ("e2e.recovery_s", "s", "lower"),
    ("e2e.failed_share", "share", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json(workloads, run_seconds: int) -> dict:
    """The contract file's content, from the catalog and the workloads."""
    return {
        "command": ["python3", "-m", "perfbench"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
