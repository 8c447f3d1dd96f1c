"""Tests for network partitions: quorum fail-over, fencing, reconciliation.

Three layers, mirroring ``test_recovery.py``:

* channel layer — :class:`ReliableDelivery` driven directly across a
  partitioned link (no engine); a hypothesis property asserts the §4.3
  exactly-once + per-channel FIFO guarantee survives arbitrary
  (overlapping, nested) cut schedules, provided every cut heals,
* inertness — a schedule whose ``partitions`` list is empty is
  bit-identical to no schedule at all, for all three schedulers,
* engine layer — minority fencing, quorum-gated fail-over, suppressed
  fail-over without quorum, heal-time reconciliation, the split-brain
  invariant sweep, and post-heal windowed aggregates matching the
  un-partitioned same-seed baseline exactly.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.messages import Message
from repro.metrics.collectors import MetricsHub
from repro.runtime.config import EngineConfig
from repro.runtime.engine import StreamEngine
from repro.runtime.invariants import check_single_instance
from repro.runtime.recovery import ReliableDelivery
from repro.sim.faults import ChannelLoss, FaultInjector, FaultSchedule, Partition
from repro.sim.kernel import Simulator
from repro.sim.network import ConstantDelay, FifoChannel
from repro.workloads.arrivals import (
    FixedBatchSize,
    PeriodicArrivals,
    drive_all_sources,
)
from repro.workloads.tenants import (
    make_bulk_analytics_job,
    make_latency_sensitive_job,
)

# ---------------------------------------------------------------------------
# channel layer in isolation
# ---------------------------------------------------------------------------


def _partitioned_harness(partitions, loss_rate: float, seed: int):
    """A ReliableDelivery over one remote channel that a schedule cuts."""
    sim = Simulator()
    metrics = MetricsHub()
    losses = [ChannelLoss(rate=loss_rate, scope="all")] if loss_rate else []
    schedule = FaultSchedule(partitions=partitions, losses=losses)
    injector = FaultInjector(schedule, np.random.default_rng(seed),
                             lambda: sim.now)
    reliable = ReliableDelivery(
        sim, metrics, injector, ConstantDelay(local=0.0, remote=0.001),
        node_down=lambda node_id: False, rto=0.05, rto_cap=0.8,
    )
    src = SimpleNamespace(node_id=0, address=("job", "src", 0))
    dst = SimpleNamespace(node_id=1, address=("job", "dst", 0))
    admitted: list[tuple[float, int]] = []

    def admit(op_rt, msg, route):
        admitted.append((sim.now, msg.seq))
        reliable.on_processed(op_rt, msg)  # instant processing

    reliable.attach(admit)
    return sim, reliable, src, dst, admitted, injector


def _drive_partitioned_channel(partitions, loss_rate, seed, count):
    sim, reliable, src, dst, admitted, injector = _partitioned_harness(
        partitions, loss_rate, seed)
    channel = FifoChannel()
    for i in range(count):
        msg = Message(target=dst.address, sender=src.address)
        sim.schedule_at(i * 0.01, reliable.send, src, dst, channel, msg)
    sim.run(until=3000.0)
    return admitted, reliable, injector


#: arbitrary healing cut schedules: 1-3 windows, freely overlapping and
#: nestable, each isolating node 0 or node 1 (equivalent cuts of a 2-node
#: link), all healed well before the retransmit horizon
_cut_windows = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.5),    # start
        st.floats(min_value=0.01, max_value=1.5),   # length
        st.sampled_from([0, 1]),                    # isolated side
    ),
    min_size=1, max_size=3,
)


@settings(max_examples=40, deadline=None)
@given(
    cuts=_cut_windows,
    loss_rate=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    count=st.integers(min_value=1, max_value=30),
)
def test_fifo_survives_arbitrary_healing_cuts(cuts, loss_rate, seed, count):
    """Any schedule of healing cuts (nested, overlapping, on top of
    Bernoulli loss) must leave the channel complete, in-order and
    exactly-once once go-back-N replays the backlog (§4.3)."""
    partitions = [
        Partition(start=start, end=start + length, groups=[(side,)])
        for start, length, side in cuts
    ]
    admitted, reliable, _ = _drive_partitioned_channel(
        partitions, loss_rate, seed, count)
    seqs = [seq for _, seq in admitted]
    assert seqs == list(range(count))  # complete, in-order, exactly-once
    assert reliable.unacked_total() == 0  # buffers fully drained post-heal


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_partitioned_channel_replay_is_deterministic(seed):
    cuts = [Partition(start=0.05, end=0.4, groups=[(1,)]),
            Partition(start=0.2, end=0.6, groups=[(0,)])]  # overlapping
    first, _, _ = _drive_partitioned_channel(cuts, 0.3, seed, 20)
    second, _, _ = _drive_partitioned_channel(cuts, 0.3, seed, 20)
    assert first == second


def test_partition_drops_are_counted_not_randomized():
    """Severed sends never touch the loss RNG: even with a loss model
    configured, a permanent cut drops everything without a single draw."""
    cut = [Partition(start=0.0, end=1e9, groups=[(1,)])]
    admitted, reliable, injector = _drive_partitioned_channel(cut, 0.5, 1, 5)
    assert admitted == []  # nothing crosses a permanent cut
    assert reliable._metrics.messages_dropped_partition > 0
    # the RNG stream was never touched
    assert injector._rng.bit_generator.state == \
        np.random.default_rng(1).bit_generator.state


# ---------------------------------------------------------------------------
# engine harness
# ---------------------------------------------------------------------------

#: one minority cut: node 2 isolated from {0, 1} for 1.5 s, then heals
CUT = FaultSchedule(
    partitions=[Partition(start=1.5, end=3.0, groups=[(2,)])])


def run_engine(schedule=None, scheduler="cameo", duration=4.0, seed=3,
               nodes=3, **overrides):
    """The recovery-suite tenant pair on a 3-node cluster."""
    ls = make_latency_sensitive_job("ls0", source_count=2)
    ba = make_bulk_analytics_job("ba0", source_count=2)
    engine = StreamEngine(
        EngineConfig(scheduler=scheduler, nodes=nodes, workers_per_node=2,
                     seed=seed, fault_schedule=schedule, **overrides),
        [ls, ba],
    )
    drive_all_sources(engine, ls, lambda s, i: PeriodicArrivals(1 / 20.0),
                      sizer=FixedBatchSize(200), until=duration)
    drive_all_sources(engine, ba, lambda s, i: PeriodicArrivals(1 / 5.0),
                      sizer=FixedBatchSize(200), until=duration)
    engine.run(until=duration + 8.0)
    return engine


# ---------------------------------------------------------------------------
# inertness: empty partition list == no schedule, bit for bit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheduler", ["cameo", "orleans", "fifo"])
def test_empty_partition_list_is_bit_identical_to_no_schedule(scheduler):
    """``FaultSchedule(partitions=[])`` is disabled: same-seed runs must
    produce identical execution timelines for every scheduler."""
    base = run_engine(schedule=None, scheduler=scheduler, record_timeline=True)
    empty = run_engine(schedule=FaultSchedule(partitions=[]),
                       scheduler=scheduler, record_timeline=True)
    assert empty.recovery is None  # no machinery installed at all
    assert empty.metrics.timeline == base.metrics.timeline
    for name in ("ls0", "ba0"):
        assert (empty.metrics.job(name).output_times
                == base.metrics.job(name).output_times)


def test_restart_during_another_outage_does_not_revive_the_down_peer():
    """A node that restarts while a peer is still down keeps that peer's
    silence in its fresh view: the peer is neither revived nor declared
    dead twice, so a short cut that heals before any crash changes no
    detection."""
    from repro.sim.faults import CrashWindow

    crashes = [CrashWindow(1, 1.0, 3.5), CrashWindow(2, 1.5, 2.5)]
    runs = [
        run_engine(schedule=FaultSchedule(crashes=crashes, partitions=cut),
                   partition_failover="naive")
        for cut in ([], [Partition(start=0.1, end=0.15, groups=[(2,)])])
    ]
    assert (runs[0].metrics.failure_detections
            == runs[1].metrics.failure_detections)
    assert [node for node, _, _ in runs[0].metrics.failure_detections] == [1, 2]
    for engine in runs:
        for when, kind, detail in engine.fault_timeline.events:
            if kind == "alive" and detail.startswith("node 1 "):
                assert when >= 3.5


# ---------------------------------------------------------------------------
# quorum mechanics
# ---------------------------------------------------------------------------


class TestQuorumFailover:
    def test_minority_fences_majority_fails_over_then_reconciles(self):
        engine = run_engine(schedule=CUT, state_recovery="replay")
        hub = engine.metrics
        assert hub.partitions_observed == 1
        assert hub.partition_heals == 1
        assert hub.nodes_fenced == 1          # node 2 lost quorum
        assert hub.failovers_suppressed_no_quorum >= 1  # node 2, about 0/1
        assert hub.reconciliations == 1       # node 2 re-admitted on heal
        assert hub.double_spawns == 0
        assert hub.messages_dropped_partition > 0
        kinds = [k for _, k, _ in engine.fault_timeline.events]
        for kind in ("partition", "fence", "suppressed", "failover",
                     "unfence", "reconcile", "heal"):
            assert kind in kinds, f"timeline missing {kind!r}"

    def test_operators_migrate_home_after_heal(self):
        engine = run_engine(schedule=CUT, state_recovery="replay")
        for addr, home in engine.recovery.initial_ownership.items():
            assert engine.operator_runtime(addr).node_id == home
        assert not engine.recovery._evacuated
        for node in engine.nodes:
            assert not node.fenced and not node.down

    def test_symmetric_split_suppresses_both_sides(self):
        """A 1-1 split of a 2-node cluster leaves no majority: both sides
        fence, neither fails over, and the heal replays everything."""
        cut = FaultSchedule(
            partitions=[Partition(start=1.5, end=3.0, groups=[(1,)])])
        engine = run_engine(schedule=cut, nodes=2, state_recovery="replay")
        hub = engine.metrics
        assert hub.nodes_fenced == 2
        assert hub.double_spawns == 0
        assert engine.recovery.detector.failures_declared == 0
        assert not engine.recovery._evacuated
        assert engine.reliable.outstanding_total() == 0  # backlog replayed

    def test_quorum_run_passes_split_brain_invariant(self):
        engine = run_engine(schedule=CUT, state_recovery="replay",
                            record_timeline=True)
        summary = check_single_instance(engine)
        assert summary["completions_checked"] > 0
        assert summary["fence_windows"] == 1
        assert summary["moves"] >= 2  # evacuation out plus migration home

    def test_invariant_refuses_a_run_without_a_timeline(self):
        """Without recorded executions the sweep would pass vacuously."""
        engine = run_engine(schedule=CUT, state_recovery="replay")
        with pytest.raises(ValueError, match="record_timeline"):
            check_single_instance(engine)


class TestNaiveFailover:
    def test_naive_mode_double_spawns(self):
        """Without the quorum gate both sides declare each other dead:
        operators of a live node get spawned a second time (split brain)."""
        engine = run_engine(schedule=CUT, state_recovery="replay",
                            partition_failover="naive")
        hub = engine.metrics
        assert hub.double_spawns > 0
        assert hub.nodes_fenced == 0          # naive mode never fences
        assert hub.failovers_suppressed_no_quorum == 0
        kinds = [k for _, k, _ in engine.fault_timeline.events]
        assert "double-spawn" in kinds


# ---------------------------------------------------------------------------
# post-heal state: aggregates equal the un-partitioned baseline
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheduler", ["cameo", "orleans", "fifo"])
@pytest.mark.parametrize("mode,interval", [("replay", 0.0),
                                           ("checkpoint", 0.5)])
def test_post_heal_aggregates_match_unpartitioned_baseline(
        scheduler, mode, interval):
    """Fencing + replay + reconciliation must be semantically invisible:
    every windowed aggregate a partitioned run emits equals the same-seed
    run without the cut, exactly."""
    base = run_engine(schedule=None, scheduler=scheduler)
    cut = run_engine(schedule=CUT, scheduler=scheduler, state_recovery=mode,
                     checkpoint_interval=interval)
    for name in ("ls0", "ba0"):
        want = base.metrics.job(name)
        got = cut.metrics.job(name)
        assert got.output_count == want.output_count
        assert sorted(got.output_values) == sorted(want.output_values)
