"""Extension experiment — network partitions, quorum fail-over, contention.

``ext_faults`` kills nodes; this experiment *cuts the fabric* instead.
Every node stays up, but for two deterministic windows the cluster is
split (see :class:`repro.sim.faults.Partition`):

* t in [0.30, 0.50] x duration — node 2 is isolated from {0, 1},
* t in [0.65, 0.80] x duration — node 0 is isolated from {1, 2}.

Each cut leaves a 2-node majority and a 1-node minority.  What happens
next depends on ``partition_failover``:

* ``quorum`` — the minority loses quorum and *fences itself* (execution
  suspends, queued work parks for replay); only the majority may declare
  the unreachable peer dead and evacuate its operators.  On heal the
  minority is re-admitted, go-back-N replays the backlog in seq order,
  and evacuated operators migrate home (reconciliation).  At no instant
  do two live instances of one operator execute — pinned after the run
  by :func:`repro.runtime.invariants.check_single_instance`.
* ``naive`` — no fencing, no quorum gate: *both* sides declare each
  other dead and spawn the other side's operators locally.  The run
  counts every such double-spawn (split brain) in
  ``metrics.double_spawns``.

Two extra variants re-run the quorum winner over a contended uplink
(:class:`repro.sim.network.SharedLink`): a fair-share link divides
capacity evenly among concurrent flows; an EDF link serialises by
deadline, so LS frames overtake queued BA bulk.  Post-heal replay bursts
make the link contended exactly when deadlines are tightest.

Expectation: cameo+quorum sustains LS deadline success with zero
double-spawns; naive fail-over double-spawns on every cut (and its
replayed duplicates burn capacity); orleans collapses under the backlog
exactly as in ``ext_faults``; the EDF link beats fair-share on LS p99
under contention.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, ls_outcome, run_tenant_mix
from repro.experiments.ext_faults import MIX  # the same tenants, other faults
from repro.runtime.invariants import check_single_instance
from repro.sim.faults import FaultSchedule, Partition


def make_partition_schedule(duration: float = 30.0) -> FaultSchedule:
    """Two minority cuts, scaled to the run length.

    Node 2 is cut away for the middle fifth of the run, node 0 for a
    shorter late window; both heal well before the drain so every
    reconciliation completes inside the measured horizon."""
    return FaultSchedule(
        partitions=[
            Partition(start=0.30 * duration, end=0.50 * duration,
                      groups=[(2,)]),
            Partition(start=0.65 * duration, end=0.80 * duration,
                      groups=[(0,)]),
        ],
    )


def run_ext_partition(
    duration: float = 30.0,
    drain: float = 5.0,
    seed: int = 4,
    link_capacity: float = 4e6,
) -> ExperimentResult:
    result = ExperimentResult(
        name="ext_partition",
        title="Deadline success under network partitions: quorum vs naive "
              "fail-over, fair vs EDF contended uplinks",
        headers=["variant", "LS success", "LS p99 (ms)", "double spawns",
                 "suppressed", "reconciliations", "part. drops", "retransmits"],
        notes="expect: quorum variants keep double spawns at 0 (minority "
              "fences; invariant-checked); naive double-spawns each cut; "
              "cameo sustains LS success where orleans collapses; the EDF "
              "link beats fair-share on LS p99 under contention",
    )
    schedule = make_partition_schedule(duration)
    variants = {
        "cameo + quorum": ("cameo", schedule, "quorum", None, "fair"),
        "cameo + naive": ("cameo", schedule, "naive", None, "fair"),
        "orleans + quorum": ("orleans", schedule, "quorum", None, "fair"),
        "fifo + quorum": ("fifo", schedule, "quorum", None, "fair"),
        "cameo (no partition)": ("cameo", None, "quorum", None, "fair"),
        "cameo + quorum (fair link)":
            ("cameo", schedule, "quorum", link_capacity, "fair"),
        "cameo + quorum (edf link)":
            ("cameo", schedule, "quorum", link_capacity, "edf"),
    }
    for label, (scheduler, sched, failover, capacity, policy) in variants.items():
        engine = run_tenant_mix(
            scheduler, MIX, duration=duration, drain=drain, nodes=3, seed=seed,
            config_overrides={
                "fault_schedule": sched, "partition_failover": failover,
                "link_capacity": capacity, "link_policy": policy,
                # the fault-free anchor installs no recovery machinery, and
                # the config layer rejects a recovery mode without it
                "state_recovery": "replay" if sched is not None else "none",
                "record_timeline": True,
            },
        )
        report = engine.metrics.fault_report()
        part = report["partitions"]
        outcome = ls_outcome(engine, duration)
        result.rows.append([
            label, outcome["success"], outcome["p99"] * 1e3, part["double_spawns"],
            part["failovers_suppressed_no_quorum"], part["reconciliations"],
            part["messages_dropped_partition"], report["retransmissions"],
        ])
        invariant = None
        if sched is not None and failover == "quorum":
            # quorum's whole claim: the execution timeline shows no completion
            # on a fenced/dead owner — raise right here if it ever does
            invariant = check_single_instance(engine)
        result.extras[label] = {
            **outcome,
            "fault_report": report,
            "invariant": invariant,
            "bandwidth": engine.bandwidth.report()
            if engine.bandwidth is not None else None,
            "timeline": list(engine.fault_timeline.events)
            if engine.fault_timeline is not None else [],
        }
    return result
