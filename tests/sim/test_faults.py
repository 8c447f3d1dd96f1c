"""Unit tests for the deterministic fault model (repro.sim.faults)."""

import numpy as np
import pytest

from repro.sim.faults import (
    INF,
    ChannelLoss,
    CrashWindow,
    DelaySpike,
    FaultInjector,
    FaultSchedule,
    FaultTimeline,
    Partition,
)


def make_injector(schedule, seed=0, now=0.0):
    clock_box = [now]
    injector = FaultInjector(schedule, np.random.default_rng(seed),
                             lambda: clock_box[0])
    return injector, clock_box


class TestCrashWindow:
    def test_defaults_to_never_restarting(self):
        assert CrashWindow(node=0, start=1.0).end == INF

    def test_rejects_negative_node(self):
        with pytest.raises(ValueError):
            CrashWindow(node=-1, start=0.0)

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            CrashWindow(node=0, start=2.0, end=2.0)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            CrashWindow(node=0, start=-1.0, end=2.0)


class TestChannelLoss:
    def test_rejects_out_of_range_rate(self):
        with pytest.raises(ValueError):
            ChannelLoss(rate=1.5)
        with pytest.raises(ValueError):
            ChannelLoss(rate=-0.1)

    def test_rejects_unknown_scope(self):
        with pytest.raises(ValueError):
            ChannelLoss(rate=0.1, scope="wan")

    def test_scope_remote_matches_cross_node_only(self):
        loss = ChannelLoss(rate=0.5, scope="remote")
        assert loss.applies(0.0, src_node=0, dst_node=1)
        assert not loss.applies(0.0, src_node=1, dst_node=1)

    def test_scope_local_matches_same_node_only(self):
        loss = ChannelLoss(rate=0.5, scope="local")
        assert loss.applies(0.0, src_node=1, dst_node=1)
        assert not loss.applies(0.0, src_node=0, dst_node=1)

    def test_window_bounds(self):
        loss = ChannelLoss(rate=0.5, scope="all", start=1.0, end=2.0)
        assert not loss.applies(0.5, 0, 1)
        assert loss.applies(1.0, 0, 1)
        assert not loss.applies(2.0, 0, 1)  # end-exclusive


class TestDelaySpike:
    def test_rejects_shrinking_factor(self):
        with pytest.raises(ValueError):
            DelaySpike(start=0.0, end=1.0, factor=0.5)

    def test_rejects_negative_extra(self):
        with pytest.raises(ValueError):
            DelaySpike(start=0.0, end=1.0, extra=-0.1)


class TestFaultSchedule:
    def test_empty_schedule_is_inert(self):
        assert not FaultSchedule().enabled

    def test_any_fault_enables(self):
        assert FaultSchedule(losses=[ChannelLoss(rate=0.1)]).enabled
        assert FaultSchedule(crashes=[CrashWindow(0, 1.0)]).enabled

    def test_canonicalizes_iterables_to_tuples(self):
        schedule = FaultSchedule(crashes=[CrashWindow(0, 1.0, 2.0)])
        assert isinstance(schedule.crashes, tuple)

    def test_rejects_wrong_types(self):
        with pytest.raises(TypeError):
            FaultSchedule(crashes=[ChannelLoss(rate=0.1)])

    def test_rejects_overlapping_crash_windows_same_node(self):
        with pytest.raises(ValueError, match="overlapping"):
            FaultSchedule(crashes=[CrashWindow(0, 1.0, 5.0),
                                   CrashWindow(0, 4.0, 6.0)])

    def test_adjacent_windows_on_same_node_are_fine(self):
        FaultSchedule(crashes=[CrashWindow(0, 1.0, 2.0),
                               CrashWindow(0, 2.0, 3.0)])

    def test_validate_cluster_rejects_unknown_node(self):
        schedule = FaultSchedule(crashes=[CrashWindow(5, 1.0)])
        with pytest.raises(ValueError, match="node 5"):
            schedule.validate_cluster(2)

    def test_validate_cluster_rejects_total_blackout(self):
        schedule = FaultSchedule(crashes=[CrashWindow(0, 1.0, 4.0),
                                          CrashWindow(1, 2.0, 3.0)])
        with pytest.raises(ValueError, match="every node"):
            schedule.validate_cluster(2)
        schedule.validate_cluster(3)  # a third node survives


class TestFaultInjector:
    def test_loss_rates_compose_independently(self):
        schedule = FaultSchedule(losses=[ChannelLoss(rate=0.5, scope="all"),
                                         ChannelLoss(rate=0.5, scope="all")])
        injector, _ = make_injector(schedule)
        assert injector._loss_rate(0.0, 0, 1) == pytest.approx(0.75)

    def test_certain_loss_drops_everything(self):
        schedule = FaultSchedule(losses=[ChannelLoss(rate=1.0, scope="all")])
        injector, _ = make_injector(schedule)
        assert all(injector.drops_message(0, 1) for _ in range(50))
        assert injector.loss_drops == 50

    def test_no_loss_outside_window(self):
        schedule = FaultSchedule(
            losses=[ChannelLoss(rate=1.0, scope="all", start=5.0, end=6.0)])
        injector, clock = make_injector(schedule)
        assert not injector.drops_message(0, 1)
        clock[0] = 5.5
        assert injector.drops_message(0, 1)

    def test_same_seed_same_drop_pattern(self):
        schedule = FaultSchedule(losses=[ChannelLoss(rate=0.3, scope="all")])
        a, _ = make_injector(schedule, seed=7)
        b, _ = make_injector(schedule, seed=7)
        pattern_a = [a.drops_message(0, 1) for _ in range(200)]
        pattern_b = [b.drops_message(0, 1) for _ in range(200)]
        assert pattern_a == pattern_b

    def test_delay_spike_inflates_only_inside_window(self):
        schedule = FaultSchedule(
            delay_spikes=[DelaySpike(start=1.0, end=2.0, factor=3.0, extra=0.5)])
        injector, clock = make_injector(schedule)
        assert injector.inflate_transit(0.1) == pytest.approx(0.1)
        clock[0] = 1.5
        assert injector.inflate_transit(0.1) == pytest.approx(0.8)


class TestPartition:
    def test_defaults_to_never_healing(self):
        assert Partition(start=1.0, groups=[(0,)]).end == INF

    def test_rejects_empty_groups(self):
        with pytest.raises(ValueError):
            Partition(start=0.0, end=1.0, groups=[])
        with pytest.raises(ValueError):
            Partition(start=0.0, end=1.0, groups=[()])

    def test_rejects_overlapping_groups(self):
        with pytest.raises(ValueError, match="disjoint"):
            Partition(start=0.0, end=1.0, groups=[(0, 1), (1, 2)])

    def test_rejects_negative_node(self):
        with pytest.raises(ValueError):
            Partition(start=0.0, end=1.0, groups=[(-1,)])

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            Partition(start=2.0, end=2.0, groups=[(0,)])

    def test_canonicalizes_groups_to_tuples(self):
        cut = Partition(start=0.0, end=1.0, groups=[[2, 1]])
        assert cut.groups == ((2, 1),)

    def test_side_of_uses_implicit_rest_group(self):
        cut = Partition(start=0.0, end=1.0, groups=[(2,)])
        assert cut.side_of(2) == 0
        assert cut.side_of(0) == cut.side_of(1) == -1

    def test_severs_cross_group_inside_window_only(self):
        cut = Partition(start=1.0, end=2.0, groups=[(2,)])
        assert cut.severs(1.5, 0, 2)
        assert cut.severs(1.5, 2, 1)
        assert not cut.severs(1.5, 0, 1)  # same implicit side
        assert not cut.severs(0.5, 0, 2)  # before the window
        assert not cut.severs(2.0, 0, 2)  # end-exclusive

    def test_never_severs_client_links(self):
        cut = Partition(start=0.0, end=10.0, groups=[(0,)])
        assert not cut.severs(1.0, -1, 0)
        assert not cut.severs(1.0, 0, -1)

    def test_three_way_split(self):
        cut = Partition(start=0.0, end=1.0, groups=[(0,), (1,)])
        assert cut.severs(0.5, 0, 1)
        assert cut.severs(0.5, 0, 2)
        assert cut.severs(0.5, 1, 2)


class TestPartitionSchedule:
    def test_partitions_enable_the_schedule(self):
        schedule = FaultSchedule(
            partitions=[Partition(start=1.0, end=2.0, groups=[(0,)])])
        assert schedule.enabled
        assert schedule.has_partitions
        assert not FaultSchedule().has_partitions

    def test_rejects_wrong_types(self):
        with pytest.raises(TypeError):
            FaultSchedule(partitions=[ChannelLoss(rate=0.1)])

    def test_validate_cluster_rejects_unknown_node(self):
        schedule = FaultSchedule(
            partitions=[Partition(start=1.0, end=2.0, groups=[(5,)])])
        with pytest.raises(ValueError, match="node 5"):
            schedule.validate_cluster(3)

    def test_describe_lists_partition_windows(self):
        schedule = FaultSchedule(
            partitions=[Partition(start=1.0, groups=[(2,)])])
        described = schedule.describe()
        assert described["enabled"]
        [cut] = described["partitions"]
        assert cut["start"] == 1.0
        assert cut["end"] is None  # INF renders as null
        assert cut["groups"] == [[2]]

    def test_describe_empty_schedule(self):
        described = FaultSchedule().describe()
        assert not described["enabled"]
        assert described["partitions"] == []

    def test_injector_severs_is_a_pure_window_query(self):
        schedule = FaultSchedule(
            partitions=[Partition(start=1.0, end=2.0, groups=[(2,)])])
        injector, clock = make_injector(schedule)
        assert not injector.severs(0, 2)
        clock[0] = 1.5
        assert injector.severs(0, 2)
        assert not injector.severs(0, 1)
        clock[0] = 2.5
        assert not injector.severs(0, 2)

    def test_severs_draws_no_randomness(self):
        schedule = FaultSchedule(
            partitions=[Partition(start=0.0, end=10.0, groups=[(1,)])],
            losses=[ChannelLoss(rate=0.3, scope="all")])
        a, _ = make_injector(schedule, seed=7)
        b, _ = make_injector(schedule, seed=7)
        for _ in range(100):
            a.severs(0, 1)  # interleave partition checks on one side only
        pattern_a = [a.drops_message(0, 1) for _ in range(200)]
        pattern_b = [b.drops_message(0, 1) for _ in range(200)]
        assert pattern_a == pattern_b


class TestFaultTimeline:
    def test_record_and_filter(self):
        timeline = FaultTimeline()
        timeline.record(1.0, "crash", "node 1 down")
        timeline.record(1.2, "failover", "node 1 evacuated")
        assert timeline.events == [(1.0, "crash", "node 1 down"),
                                   (1.2, "failover", "node 1 evacuated")]
