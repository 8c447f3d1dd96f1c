"""Extension experiment — deadline success and recovery under faults.

Cameo's evaluation (§6) assumes a healthy cluster.  This experiment runs
the multi-tenant workload through a *hostile* one — a deterministic fault
schedule shared by every variant (see :mod:`repro.sim.faults`):

* node 1 fail-stops at t=8 s and stays down for 12 s; node 2 fail-stops
  at t=10 s for 4 s (the cluster briefly runs on 2 of 6 workers),
* 2 % Bernoulli loss on every remote channel for the whole run,
* a delay spike during the double-fault window (4x transit + 0.6 s).

The bulk-analytics jobs use coarse messages (``cost_scale=50``, ~50-75 ms
per message) — exactly the coarse-grained execution the paper argues makes
priority scheduling necessary (§2): a non-preemptible baseline cycle then
exceeds the LS deadline once the crash-induced backlog forms.

Variants, all under the identical schedule and seed:

* ``cameo + shedding`` — priority scheduling plus deadline-aware load
  shedding (messages whose ``ddl_M`` already passed are dropped unexecuted;
  only Cameo *can* shed this way — baselines carry no deadline to shed by),
* ``cameo`` — priority scheduling alone: expired messages still execute,
  late, burning capacity the backlog needs,
* ``orleans`` / ``fifo`` — the baselines,
* ``cameo (no faults)`` — fault-free anchor for the success ceiling.

Success is on-time LS outputs over the *analytic* expected output count
(windows driven), so an output that never materialises — starved, lost, or
shed — counts as a miss; shedding gets no free pass.  Recovery time is the
last instant (relative to the first crash) an LS output violated its
constraint: how long the scheduler took to re-meet the SLO.

Expectation: cameo+shedding sustains >= 90 % LS deadline success and
recovers essentially instantly (expired work is dropped, meetable work is
prioritised); plain cameo reaches the same on-time count but wastes
workers on doomed messages, stretching tail latency and recovery; FIFO
degrades (head-of-line blocking behind the replayed+backlogged coarse BA
messages); Orleans collapses.

``backend="mp"`` runs the same schedule on real worker processes: each
crash window SIGKILLs its worker at the window start (permanently — the
mp backend has no rejoin, strictly harsher than the sim's bounded
outage), each worker drops incoming cross-pipe data entries under the
same loss windows and go-back-N retransmits them, and the delay spike is
not realised.  Success/recovery metrics read identically off the merged
hub.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    TenantMix,
    ls_outcome,
    recovery_time,
    run_tenant_mix,
)
from repro.sim.faults import ChannelLoss, CrashWindow, DelaySpike, FaultSchedule

#: first crash instant — the reference point for recovery time
CRASH_AT = 8.0

#: 4 LS jobs beside 4 coarse-message BA jobs
MIX = TenantMix(ls_count=4, ba_count=4, ba_msg_rate=3.0, ba_cost_scale=50.0)


def make_fault_schedule(duration: float = 30.0) -> FaultSchedule:
    """The crash+loss schedule shared by every faulted variant."""
    return FaultSchedule(
        crashes=[
            CrashWindow(node=1, start=CRASH_AT, end=CRASH_AT + 12.0),
            CrashWindow(node=2, start=CRASH_AT + 2.0, end=CRASH_AT + 6.0),
        ],
        losses=[ChannelLoss(rate=0.02, scope="remote", end=duration)],
        delay_spikes=[
            DelaySpike(start=CRASH_AT + 3.0, end=CRASH_AT + 5.0,
                       factor=4.0, extra=0.6),
        ],
    )


def run_ext_faults(
    duration: float = 30.0,
    drain: float = 5.0,
    seed: int = 4,
    backend: str = "sim",
) -> ExperimentResult:
    result = ExperimentResult(
        name="ext_faults",
        title="Deadline success and recovery under node crashes + lossy channels",
        headers=["variant", "LS success", "LS p99 (ms)", "recovery (s)",
                 "shed", "retransmits", "detect (ms)", "lost@crash"],
        notes="expect: cameo+shedding >= 0.90 success and ~0 recovery; plain "
              "cameo equal success but slower recovery (expired work still "
              "executes); fifo degrades; orleans collapses",
    )
    schedule = make_fault_schedule(duration)
    variants = {
        "cameo + shedding": ("cameo", schedule, True),
        "cameo": ("cameo", schedule, False),
        "orleans": ("orleans", schedule, False),
        "fifo": ("fifo", schedule, False),
        "cameo (no faults)": ("cameo", None, False),
    }
    for label, (scheduler, variant_schedule, shed) in variants.items():
        engine = run_tenant_mix(
            scheduler, MIX, duration=duration, drain=drain, nodes=3, seed=seed,
            config_overrides={"backend": backend, "shed_expired": shed,
                              "fault_schedule": variant_schedule},
        )
        outcome = ls_outcome(engine, duration)
        recovery = (recovery_time(engine, CRASH_AT)
                    if variant_schedule is not None else 0.0)
        report = engine.metrics.fault_report()
        detect = engine.metrics.mean_detection_latency()
        result.rows.append([
            label, outcome["success"], outcome["p99"] * 1e3, recovery,
            report["messages_shed"], report["retransmissions"],
            detect * 1e3 if detect == detect else 0.0,
            report["messages_lost_crash"],
        ])
        result.extras[label] = {
            **outcome,
            "recovery": recovery,
            "fault_report": report,
            "timeline": list(engine.fault_timeline.events)
            if engine.fault_timeline is not None else [],
        }
    return result
