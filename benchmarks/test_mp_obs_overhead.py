"""mp-backend observability overhead: on must cost a bounded amount.

Companion to ``test_obs_overhead.py`` for the process-backed path.  The
structural claim (off ⇒ every observability slot of a worker holds
``None``) is tier-1's ``tests/obs/test_residue.py``; here an untraced run
exposes no tracer and no process map, and a traced run of the same flooded workload (cost
realization off, so the span machinery is the largest relative cost it
will ever be) stays within a generous wall-time multiple of the untraced
run.
"""

from __future__ import annotations

import time

from repro.experiments.common import TenantMix, run_tenant_mix


def _mix() -> TenantMix:
    return TenantMix(ls_count=1, ba_count=1, ls_sources=2, ba_sources=2,
                     tuples_per_msg=200)


def _timed_mp(trace: bool):
    start = time.perf_counter()
    engine = run_tenant_mix(
        "cameo", _mix(), duration=3.0, drain=1.0, nodes=2,
        workers_per_node=1, seed=7,
        config_overrides={
            "backend": "mp",
            "mp_cost_mode": "none",
            "mp_realtime": False,
            "record_trace": trace,
        },
    )
    elapsed = time.perf_counter() - start
    return engine, elapsed, engine.metrics.total_messages


def test_untraced_mp_run_exposes_no_obs_surface(benchmark):
    engine, seconds, messages = benchmark.pedantic(
        lambda: _timed_mp(False), rounds=1, iterations=1
    )
    assert engine.tracer is None
    assert engine.process_map is None
    print(f"\nmp tracing off: {messages} messages in {seconds:.3f}s "
          f"({seconds / messages * 1e6:.1f} us/msg)")
    assert messages > 100


def test_traced_mp_run_overhead_is_bounded(benchmark):
    _, base_seconds, base_messages = _timed_mp(False)
    engine, traced_seconds, traced_messages = benchmark.pedantic(
        lambda: _timed_mp(True), rounds=1, iterations=1
    )
    # tracing may not change what the run computes
    assert traced_messages == base_messages
    assert len(engine.tracer.spans) > 0
    ratio = traced_seconds / base_seconds
    pids = [entry["pid"] for _, entry in sorted(engine.process_map.items())]
    print(f"\nmp tracing on: {traced_seconds:.3f}s vs off "
          f"{base_seconds:.3f}s (x{ratio:.2f}, "
          f"{len(engine.tracer.spans)} spans, "
          f"{len(engine.tracer.samples)} node samples, "
          f"worker pids {pids})")
    # span parts and node samples ride existing heartbeat flushes in one
    # TRACE frame.  Generous bound for noisy CI machines: the mp floor is
    # process startup + barriers, so even a large relative hit on the
    # dispatch loop stays small here.
    assert ratio < 3.0
