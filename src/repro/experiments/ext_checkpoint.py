"""Extension experiment — checkpointed state recovery vs. pure replay.

The fault experiment (:mod:`repro.experiments.ext_faults`) recovers
crashes under the classic upstream-backup assumption: operator state
survives on the migration path and senders replay whatever was not yet
processed.  This experiment makes state loss *honest* and measures what
the :class:`~repro.runtime.recovery.CheckpointManager` buys back.  One
deterministic schedule — a single node fail-stop plus mild channel loss —
is replayed under four state-recovery regimes, identical seed and inputs:

* ``checkpoint`` — periodic async snapshots of every operator's
  :class:`~repro.state.store.KeyedStateStore` (plus its delivery
  frontier); fail-over restores the last snapshot and replays only the
  suffix after it, and retransmit buffers truncate at the checkpoint
  watermark,
* ``replay only`` — honest state loss with no checkpoints: failed
  operators restart pristine and senders replay from sequence 0, so
  buffers retain the full history (the PR-4-style upstream-backup
  baseline),
* ``legacy (state immortal)`` — ``state_recovery="none"``: the old
  modelling artifact where in-memory state rides the migration path,
* ``no faults`` — the healthy anchor.

Expectations the checkpoint smoke CI job asserts: ``checkpoint`` replays
*strictly fewer* messages than ``replay only`` (bounded by the snapshot
interval instead of the whole history), holds a *strictly smaller* peak
retransmit buffer (truncation at the stable watermark), recovers no
slower, and its deadline success stays within the faulted envelope —
state recovery is not paid for with missed deadlines.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    TenantMix,
    ls_outcome,
    recovery_time,
    run_tenant_mix,
)
from repro.sim.faults import ChannelLoss, CrashWindow, FaultSchedule

#: crash instant — the reference point for recovery time
CRASH_AT = 8.0

#: snapshot cadence of the ``checkpoint`` variant (seconds)
CHECKPOINT_INTERVAL = 1.0

MIX = TenantMix(ls_count=2, ba_count=2, ls_sources=2, ba_sources=2,
                ba_msg_rate=3.0, ba_cost_scale=20.0)


def make_crash_schedule(duration: float = 20.0) -> FaultSchedule:
    """One node fail-stop (down 6 s) plus 1 % remote channel loss."""
    return FaultSchedule(
        crashes=[CrashWindow(node=1, start=CRASH_AT, end=CRASH_AT + 6.0)],
        losses=[ChannelLoss(rate=0.01, scope="remote", end=duration)],
    )


def run_ext_checkpoint(
    duration: float = 20.0,
    drain: float = 5.0,
    seed: int = 4,
    scheduler: str = "cameo",
) -> ExperimentResult:
    result = ExperimentResult(
        name="ext_checkpoint",
        title="State recovery: checkpoints + replay truncation vs pure replay",
        headers=["variant", "LS success", "LS p99 (ms)", "recovery (s)",
                 "replayed", "ckpts", "ckpt KB", "buf peak", "retransmits"],
        notes="expect: checkpoint replays strictly fewer messages and holds a "
              "smaller peak retransmit buffer than replay-only, recovers no "
              "slower, and keeps deadline success in the faulted envelope",
    )
    schedule_proto = make_crash_schedule(duration)
    variants = {
        "checkpoint": ("checkpoint", CHECKPOINT_INTERVAL, schedule_proto),
        "replay only": ("replay", 0.0, schedule_proto),
        "legacy (state immortal)": ("none", 0.0, schedule_proto),
        "no faults": ("none", 0.0, None),
    }
    for label, (mode, interval, schedule) in variants.items():
        engine = run_tenant_mix(
            scheduler, MIX, duration=duration, drain=drain, nodes=3, seed=seed,
            config_overrides={"fault_schedule": schedule, "state_recovery": mode,
                              "checkpoint_interval": interval},
        )
        outcome = ls_outcome(engine, duration)
        recovery = recovery_time(engine, CRASH_AT) if schedule is not None else 0.0
        report = engine.metrics.fault_report()
        peak = engine.reliable.unacked_peak if engine.reliable is not None else 0
        result.rows.append([
            label, outcome["success"], outcome["p99"] * 1e3, recovery,
            report["messages_replayed_recovery"], report["checkpoints_taken"],
            report["checkpoint_bytes"] / 1e3, peak, report["retransmissions"],
        ])
        result.extras[label] = {
            **outcome,
            "recovery": recovery,
            "unacked_peak": peak,
            "unacked_final": engine.reliable.unacked_total()
            if engine.reliable is not None else 0,
            "fault_report": report,
            "timeline": list(engine.fault_timeline.events)
            if engine.fault_timeline is not None else [],
        }
    return result
