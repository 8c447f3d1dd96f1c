"""Unit tests for the transit delay model, FIFO channels and shared links."""

import numpy as np
import pytest

from repro.sim.network import (
    LINK_BYTES_PER_TUPLE,
    LINK_FRAME_BYTES,
    BandwidthModel,
    ChannelTable,
    ConstantDelay,
    FifoChannel,
    SharedLink,
)


class TestConstantDelay:
    def test_local_vs_remote(self):
        model = ConstantDelay(local=0.0, remote=0.001)
        assert model.delay(0, 0) == 0.0
        assert model.delay(0, 1) == 0.001

    def test_same_node_is_local(self):
        model = ConstantDelay(local=0.1, remote=0.2)
        assert model.delay(3, 3) == 0.1


class TestFifoChannel:
    def test_plain_delivery(self):
        channel = FifoChannel()
        assert channel.deliver_time(1.0, 0.5) == 1.5

    def test_never_reorders(self):
        channel = FifoChannel()
        first = channel.deliver_time(1.0, 1.0)  # arrives at 2.0
        second = channel.deliver_time(1.5, 0.1)  # would arrive at 1.6 -> clamped
        assert second >= first

    def test_monotone_across_many_sends(self):
        rng = np.random.default_rng(1)
        channel = FifoChannel()
        now = 0.0
        last = float("-inf")
        for _ in range(200):
            now += rng.exponential(0.01)
            arrival = channel.deliver_time(now, rng.exponential(0.005))
            assert arrival >= last
            last = arrival

    def test_negative_transit_rejected(self):
        with pytest.raises(ValueError):
            FifoChannel().deliver_time(0.0, -0.1)


class TestChannelTable:
    def test_same_pair_same_channel(self):
        table = ChannelTable()
        assert table.channel("a", "b") is table.channel("a", "b")

    def test_different_pairs_different_channels(self):
        table = ChannelTable()
        assert table.channel("a", "b") is not table.channel("b", "a")
        assert len(table) == 2

    def test_directionality_preserves_independent_ordering(self):
        table = ChannelTable()
        ab = table.channel("a", "b")
        ab.deliver_time(0.0, 10.0)  # a->b backed up until t=10
        ba = table.channel("b", "a")
        assert ba.deliver_time(0.0, 0.1) == pytest.approx(0.1)


class TestSharedLink:
    def test_uncontended_fair_transfer_is_bytes_over_capacity(self):
        link = SharedLink(capacity=1000.0)
        assert link.transfer_time(0.0, 500.0) == pytest.approx(0.5)

    def test_fair_share_splits_capacity_among_active_flows(self):
        link = SharedLink(capacity=1000.0, policy="fair")
        link.transfer_time(0.0, 1000.0)  # in flight until t=1
        # second flow sees 1 active flow -> half the capacity
        assert link.transfer_time(0.5, 500.0) == pytest.approx(1.0)

    def test_finished_flows_free_the_link(self):
        link = SharedLink(capacity=1000.0, policy="fair")
        link.transfer_time(0.0, 100.0)  # done at t=0.1
        assert link.transfer_time(0.5, 500.0) == pytest.approx(0.5)

    def test_edf_waits_behind_earlier_deadlines_only(self):
        link = SharedLink(capacity=1000.0, policy="edf")
        link.transfer_time(0.0, 1000.0, deadline=5.0)  # bulk, until t=1
        # later deadline: waits behind the bulk flow's full remainder
        late = link.transfer_time(0.0, 100.0, deadline=9.0)
        assert late == pytest.approx(1.1)
        # earlier deadline: overtakes the queued bulk entirely
        urgent = link.transfer_time(0.0, 100.0, deadline=1.0)
        assert urgent == pytest.approx(0.1)

    def test_edf_linear_remainder_estimate(self):
        link = SharedLink(capacity=1000.0, policy="edf")
        link.transfer_time(0.0, 1000.0, deadline=1.0)  # until t=1
        # at t=0.75 a quarter of the bytes remain ahead of deadline 2.0
        assert link.transfer_time(0.75, 100.0, deadline=2.0) == (
            pytest.approx(0.35))

    def test_counters_and_report(self):
        link = SharedLink(capacity=1000.0)
        link.transfer_time(0.0, 100.0)
        link.transfer_time(0.05, 100.0)
        report = link.report()
        assert report["transfers"] == 2
        assert report["bytes_sent"] == pytest.approx(200.0)
        assert report["contended_transfers"] == 1
        assert report["max_concurrent"] == 2

    def test_rejects_bad_capacity_and_policy(self):
        with pytest.raises(ValueError):
            SharedLink(capacity=0.0)
        with pytest.raises(ValueError):
            SharedLink(capacity=1.0, policy="wfq")

    def test_deterministic_without_rng(self):
        def run():
            link = SharedLink(capacity=1000.0, policy="edf")
            return [link.transfer_time(i * 0.1, 200.0, deadline=i * 0.1 + 1)
                    for i in range(20)]
        assert run() == run()


class TestBandwidthModel:
    def test_local_and_client_hops_are_exempt(self):
        model = BandwidthModel(capacity=1000.0)
        assert model.transfer_time(0.0, 0, 0, 100) == 0.0
        assert model.transfer_time(0.0, -1, 1, 100) == 0.0

    def test_remote_hop_pays_frame_plus_per_tuple_bytes(self):
        model = BandwidthModel(capacity=1000.0)
        nbytes = LINK_FRAME_BYTES + LINK_BYTES_PER_TUPLE * 400
        assert model.transfer_time(0.0, 0, 1, 400) == \
            pytest.approx(nbytes / 1000.0)

    def test_uplinks_are_per_source_node(self):
        model = BandwidthModel(capacity=1000.0)
        model.transfer_time(0.0, 0, 1, 1000)  # saturates node 0's uplink
        # node 1's uplink is unaffected
        nbytes = LINK_FRAME_BYTES + LINK_BYTES_PER_TUPLE * 500
        assert model.transfer_time(0.0, 1, 0, 500) == \
            pytest.approx(nbytes / 1000.0)

    def test_metrics_accumulate(self):
        class Hub:
            link_bytes_sent = 0.0
            link_transfer_seconds = 0.0
        hub = Hub()
        model = BandwidthModel(capacity=1000.0, metrics=hub)
        model.transfer_time(0.0, 0, 1, 500)
        nbytes = LINK_FRAME_BYTES + LINK_BYTES_PER_TUPLE * 500
        assert hub.link_bytes_sent == pytest.approx(nbytes)
        assert hub.link_transfer_seconds == pytest.approx(nbytes / 1000.0)

    def test_report_lists_uplinks(self):
        model = BandwidthModel(capacity=1000.0)
        model.transfer_time(0.0, 2, 0, 10)
        report = model.report()
        assert list(report["uplinks"]) == [2]
        assert report["bytes_per_tuple"] == LINK_BYTES_PER_TUPLE

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BandwidthModel(capacity=0.0)
        with pytest.raises(ValueError):
            BandwidthModel(capacity=1000.0, policy="wfq")
