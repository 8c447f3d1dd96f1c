"""Checkpointing off must cost (nearly) nothing.

Same null-collaborator guard as ``test_obs_overhead.py``, for the state
layer: with ``state_recovery="none"`` the engine holds no
``CheckpointManager``, the reliable layer never enables state retention,
and the hot path gains nothing but dead ``is not None`` branches.  Pins
the structural claim on both the default and the faulted configuration,
then bounds the enabled-mode cost against the faulted-but-unchekpointed
run it piggybacks on.
"""

from __future__ import annotations

import time

from repro.experiments.common import TenantMix, run_tenant_mix
from repro.sim.faults import CrashWindow, FaultSchedule


def _timed_mix(**overrides):
    mix = TenantMix(ls_count=2, ba_count=4)
    start = time.perf_counter()
    engine = run_tenant_mix(
        "cameo", mix, duration=8.0, nodes=2, workers_per_node=2, seed=21,
        config_overrides=overrides,
    )
    elapsed = time.perf_counter() - start
    return engine, elapsed, engine.metrics.total_messages


def _crash_schedule():
    return FaultSchedule(crashes=[CrashWindow(node=1, start=2.0, end=3.5)])


def test_default_config_leaves_no_state_recovery_residue(benchmark):
    engine, seconds, messages = benchmark.pedantic(
        lambda: _timed_mix(), rounds=1, iterations=1
    )
    # structural guarantee: no checkpoint or retention machinery is live
    assert engine.checkpoints is None
    assert engine.reliable is None
    assert engine.recovery is None
    assert engine.metrics.checkpoints_taken == 0
    print(f"\ncheckpointing off: {messages} messages in {seconds:.3f}s "
          f"({seconds / messages * 1e6:.1f} us/msg)")
    assert messages > 2_000


def test_faults_without_recovery_mode_install_no_checkpoints():
    engine, _, _ = _timed_mix(fault_schedule=_crash_schedule())
    assert engine.checkpoints is None
    assert engine.reliable is not None          # faults need reliable delivery
    assert not engine.reliable.retains_state()  # ...but no retention
    assert engine.metrics.checkpoints_taken == 0


def test_checkpointing_enabled_overhead_is_bounded(benchmark):
    _, base_seconds, base_messages = _timed_mix(
        fault_schedule=_crash_schedule())
    engine, ckpt_seconds, ckpt_messages = benchmark.pedantic(
        lambda: _timed_mix(fault_schedule=_crash_schedule(),
                           state_recovery="checkpoint",
                           checkpoint_interval=0.5),
        rounds=1, iterations=1,
    )
    assert engine.metrics.checkpoints_taken > 0
    ratio = ckpt_seconds / base_seconds
    print(f"\ncheckpointing on: {ckpt_seconds:.3f}s vs off "
          f"{base_seconds:.3f}s (x{ratio:.2f}, "
          f"{engine.metrics.checkpoints_taken} snapshots, "
          f"{engine.metrics.checkpoint_bytes} bytes)")
    # a periodic state serialization sweep plus per-ack watermark checks:
    # well under 3x even on noisy CI machines
    assert ratio < 3.0
