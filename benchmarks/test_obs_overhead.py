"""Observability overhead: tracing off must cost (nearly) nothing.

The whole design of the observability plane is the null-collaborator
idiom: with ``record_trace=False`` the runtime layers hold ``None``
instead of a recorder, so the PR 2 hot path gains exactly one dead
``is not None`` branch per hook site (the structural claim, pinned in
tier-1 by ``tests/obs/test_residue.py``).  This bench times the
fig08-style tenant mix three ways — tracing off (the regression guard
against the pre-observability baseline), tracing on, and tracing on with a
fast sampling cadence — and pins a generous bound on the enabled-mode cost.
"""

from __future__ import annotations

import time

from repro.experiments.common import TenantMix, run_tenant_mix


def _timed_mix(trace: bool, sample_interval: float = 0.05):
    mix = TenantMix(ls_count=2, ba_count=4)
    overrides = {"record_trace": trace,
                 "trace_sample_interval": sample_interval}
    start = time.perf_counter()
    engine = run_tenant_mix(
        "cameo", mix, duration=8.0, nodes=2, workers_per_node=2, seed=21,
        config_overrides=overrides,
    )
    elapsed = time.perf_counter() - start
    return engine, elapsed, engine.metrics.total_messages


def test_tracing_disabled_baseline_cost(benchmark):
    engine, seconds, messages = benchmark.pedantic(
        lambda: _timed_mix(False), rounds=1, iterations=1
    )
    assert engine.tracer is None
    print(f"\ntracing off: {messages} messages in {seconds:.3f}s "
          f"({seconds / messages * 1e6:.1f} us/msg)")
    assert messages > 2_000


def test_tracing_enabled_overhead_is_bounded(benchmark):
    _, base_seconds, base_messages = _timed_mix(False)
    engine, traced_seconds, traced_messages = benchmark.pedantic(
        lambda: _timed_mix(True), rounds=1, iterations=1
    )
    # tracing may not change the simulation itself
    assert traced_messages == base_messages
    assert len(engine.tracer.spans) >= traced_messages
    ratio = traced_seconds / base_seconds
    print(f"\ntracing on: {traced_seconds:.3f}s vs off {base_seconds:.3f}s "
          f"(x{ratio:.2f}, {len(engine.tracer.spans)} spans, "
          f"{len(engine.tracer.samples)} samples)")
    # one span allocation + a handful of attribute writes per message:
    # well under 3x even on noisy CI machines
    assert ratio < 3.0


def test_sampling_cadence_cost_is_linear_not_explosive():
    _, slow_seconds, _ = _timed_mix(True, sample_interval=0.1)
    engine, fast_seconds, _ = _timed_mix(True, sample_interval=0.01)
    assert len(engine.tracer.samples) > 1000
    # 10x the samples must not dominate the run
    assert fast_seconds < 3.0 * slow_seconds + 0.5
