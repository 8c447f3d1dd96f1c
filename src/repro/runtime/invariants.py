"""Split-brain invariant checker: at most one live operator instance.

The quorum machinery in :mod:`repro.runtime.recovery` is designed so
that a partition can never leave two executing instances of the same
operator (the classic split-brain double-spawn): the minority side
fences itself *before* the majority declares it dead and takes its
operators over, and a fenced node executes nothing.  This module pins
that property after the fact, from artifacts every partition run
records anyway:

* the :class:`~repro.runtime.recovery.RecoveryManager`'s **ownership
  log** — ``(time, address, from_node, to_node, reason)`` per completed
  migration, anchored by the initial placement;
* its **fence log** — ``(time, node_id, "fence"|"unfence")``;
* the **execution timeline** — ``(finished, job, stage, index, msg_id,
  started)`` per completed execution (``record_timeline`` runs).

``check_single_instance`` reconstructs each operator's single-owner
interval chain (the chain itself proves at most one owner at any sim
time — a break in it means two nodes both believed they hosted the
operator) and then sweeps the timeline: no message may complete
under an owner that was fenced or fail-stopped at that instant, except
at the fence boundary itself (an event already firing at the fence
instant ran before the sweep that fenced the node).

Note the invariant is deliberately *not* "msg_ids are unique": replay-
mode recovery legitimately re-executes messages after a rollback, so
duplicate msg_ids in the timeline are correct behaviour.  What
must never happen is execution on a host that has lost ownership.
"""

from __future__ import annotations

from bisect import bisect_right

INF = float("inf")


def ownership_intervals(recovery, until: float) -> dict:
    """``(job, stage, index) -> [(start, end, node_id), ...]`` chains.

    Raises ``AssertionError`` if a recorded move departs from a node
    that the chain says did not own the operator — two simultaneous
    owners, the bookkeeping half of a split brain.
    """
    chains: dict = {}
    cursor: dict = {}
    for addr, node in recovery.initial_ownership.items():
        key = (addr.job, addr.stage, addr.index)
        chains[key] = []
        cursor[key] = (0.0, node)
    for time, addr, src, dst, _reason in recovery.ownership_log:
        key = (addr.job, addr.stage, addr.index)
        start, node = cursor[key]
        assert node == src, (
            f"ownership chain broken for {key}: move at t={time} departs "
            f"node {src} but the chain says node {node} owned it"
        )
        chains[key].append((start, time, node))
        cursor[key] = (time, dst)
    for key, (start, node) in cursor.items():
        chains[key].append((start, until, node))
    return chains


def fence_intervals(fence_log, until: float) -> dict:
    """``node_id -> [(fence_start, fence_end), ...]`` windows."""
    windows: dict = {}
    open_at: dict = {}
    for time, node_id, kind in fence_log:
        if kind == "fence":
            open_at[node_id] = time
        else:
            start = open_at.pop(node_id, None)
            if start is not None:
                windows.setdefault(node_id, []).append((start, time))
    for node_id, start in open_at.items():
        windows.setdefault(node_id, []).append((start, until))
    return windows


def down_intervals(schedule) -> dict:
    """``node_id -> [(crash_start, crash_end), ...]`` from the schedule."""
    windows: dict = {}
    if schedule is None:
        return windows
    for crash in schedule.crashes:
        windows.setdefault(crash.node, []).append((crash.start, crash.end))
    return windows


def _owner_at(chain, time: float) -> int:
    """Owning node at ``time`` given one address's interval chain."""
    starts = [interval[0] for interval in chain]
    i = bisect_right(starts, time) - 1
    if i < 0:
        i = 0
    return chain[i][2]


def check_single_instance(engine) -> dict:
    """Assert the split-brain invariant over one finished engine run.

    Requires a partition-aware run with ``record_timeline`` on.  Returns
    a summary dict; raises ``AssertionError`` on the first violation
    found, and ``ValueError`` when there is nothing to check.
    """
    recovery = engine.recovery
    if recovery is None:
        raise ValueError("no recovery layer installed; nothing to check")
    if not engine.config.record_timeline:
        raise ValueError("run without record_timeline; no executions to check")
    until = engine.sim.now
    chains = ownership_intervals(recovery, until)
    fences = fence_intervals(recovery.fence_log, until)
    downs = down_intervals(engine.config.fault_schedule)
    checked = 0
    for time, job, stage, index, *_ in engine.metrics.timeline:
        chain = chains.get((job, stage, index))
        if chain is None:
            continue  # operator outside the recovery layer's bookkeeping
        owner = _owner_at(chain, time)
        # strict interior: a completion already firing at the fence (or
        # crash) instant ran before the transition at the same sim time
        for start, end in fences.get(owner, ()):
            assert not (start < time < end), (
                f"completion of {job}/{stage}[{index}] at t={time} on node "
                f"{owner} inside its fence window [{start}, {end})"
            )
        for start, end in downs.get(owner, ()):
            assert not (start < time < end), (
                f"completion of {job}/{stage}[{index}] at t={time} on node "
                f"{owner} while that node was fail-stopped [{start}, {end})"
            )
        checked += 1
    return {
        "completions_checked": checked,
        "operators": len(chains),
        "moves": len(recovery.ownership_log),
        "fence_windows": sum(len(w) for w in fences.values()),
    }
