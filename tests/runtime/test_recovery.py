"""Tests for the recovery layer: reliable channels, failure detection,
crash fail-over, deadline shedding and exception injection.

The channel-layer property test drives :class:`ReliableDelivery` directly
over a link whose losses the fault injector draws (no engine) and asserts
the §4.3 per-channel FIFO guarantee survives them; the protocol state
machine itself is tested in ``test_delivery.py``.  The rest exercise the
full engine under small fault schedules.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shedding import DeadlineShedder
from repro.dataflow.messages import Message
from repro.metrics.collectors import MetricsHub
from repro.runtime.config import EngineConfig
from repro.runtime.engine import StreamEngine
from repro.runtime.recovery import FailureDetector, ReliableDelivery
from repro.sim.faults import (
    ChannelLoss,
    CrashWindow,
    DelaySpike,
    FaultInjector,
    FaultSchedule,
)
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


def _lossy_harness(loss_rate: float, seed: int):
    """A ReliableDelivery over one remote channel with symmetric loss."""
    sim = Simulator()
    metrics = MetricsHub()
    schedule = FaultSchedule(losses=[ChannelLoss(rate=loss_rate, scope="all")])
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
    return sim, reliable, src, dst, admitted


def _drive_lossy_channel(loss_rate: float, seed: int, count: int):
    sim, reliable, src, dst, admitted = _lossy_harness(loss_rate, seed)
    channel = FifoChannel()
    for i in range(count):
        msg = Message(target=dst.address, sender=src.address)
        sim.schedule_at(i * 0.01, reliable.send, src, dst, channel, msg)
    sim.run(until=3000.0)
    return admitted, reliable


@settings(max_examples=40, deadline=None)
@given(
    loss_rate=st.floats(min_value=0.0, max_value=0.8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    count=st.integers(min_value=1, max_value=30),
)
def test_fifo_survives_arbitrary_loss(loss_rate, seed, count):
    """Ack/retransmit over a lossy channel must deliver every message to
    the mailbox exactly once and strictly in sequence order (§4.3)."""
    admitted, reliable = _drive_lossy_channel(loss_rate, seed, count)
    seqs = [seq for _, seq in admitted]
    assert seqs == list(range(count))  # complete, in-order, exactly-once
    assert reliable.unacked_total() == 0  # retransmit buffers fully drained


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_lossy_channel_replay_is_deterministic(seed):
    """Same seed, same loss pattern, same admission trace — timestamps and
    all."""
    first, _ = _drive_lossy_channel(0.5, seed, 20)
    second, _ = _drive_lossy_channel(0.5, seed, 20)
    assert first == second


def test_reliable_delivery_rejects_bad_rto():
    sim, metrics = Simulator(), MetricsHub()
    injector = FaultInjector(FaultSchedule(), np.random.default_rng(0),
                             lambda: sim.now)
    delay = ConstantDelay()
    with pytest.raises(ValueError):
        ReliableDelivery(sim, metrics, injector, delay,
                         lambda n: False, rto=0.0, rto_cap=1.0)
    with pytest.raises(ValueError):
        ReliableDelivery(sim, metrics, injector, delay,
                         lambda n: False, rto=0.5, rto_cap=0.1)


# ---------------------------------------------------------------------------
# failure detector in isolation
# ---------------------------------------------------------------------------


def test_failure_detector_validates_cadence():
    sim = Simulator()
    with pytest.raises(ValueError):
        FailureDetector(sim, [], 0.0, 1.0, None, None, None, quorum=False,
                        on_failure=lambda n: None)
    with pytest.raises(ValueError):
        FailureDetector(sim, [], 0.5, 0.1, None, None, None, quorum=False,
                        on_failure=lambda n: None)


def test_failure_detector_declares_and_recovers():
    sim = Simulator()
    nodes = [SimpleNamespace(node_id=i, down=False) for i in range(2)]
    failures: list[tuple[int, float]] = []
    alive: list[tuple[int, float]] = []
    injector = FaultInjector(FaultSchedule(), np.random.default_rng(0),
                             lambda: sim.now)
    detector = FailureDetector(
        sim, nodes, 0.1, 0.3, injector, MetricsHub(), None, quorum=False,
        on_failure=lambda n: failures.append((n, sim.now)),
        on_alive=lambda n: alive.append((n, sim.now)),
    )
    detector.start()

    def set_down(flag):
        nodes[1].down = flag

    sim.schedule_at(1.0, set_down, True)
    sim.schedule_at(2.0, set_down, False)
    sim.run(until=3.0)
    assert [n for n, _ in failures] == [1]
    declared_at = failures[0][1]
    # silence starts at the last pre-crash heartbeat (in [0.9, 1.0]);
    # declared once silence exceeds the timeout, at sweep granularity
    assert 1.2 < declared_at <= 1.0 + 0.3 + 0.1
    assert [n for n, _ in alive] == [1]
    assert alive[0][1] > 2.0
    assert detector.failed == set()
    assert detector.failures_declared == 1


# ---------------------------------------------------------------------------
# deadline shedder
# ---------------------------------------------------------------------------


class TestDeadlineShedder:
    def test_rejects_negative_slack(self):
        with pytest.raises(ValueError):
            DeadlineShedder(-0.1)

    def test_sheds_only_past_deadline_plus_slack(self):
        shedder = DeadlineShedder(0.5)
        pc = SimpleNamespace(deadline=10.0)
        assert not shedder.should_shed(pc, 10.4)
        assert not shedder.should_shed(pc, 10.5)
        assert shedder.should_shed(pc, 10.6)

    def test_nan_and_inf_deadlines_never_shed(self):
        shedder = DeadlineShedder(0.0)
        assert not shedder.should_shed(SimpleNamespace(deadline=float("nan")), 1e9)
        assert not shedder.should_shed(SimpleNamespace(deadline=float("inf")), 1e9)


# ---------------------------------------------------------------------------
# engine-level fault scenarios
# ---------------------------------------------------------------------------


def _faulted_engine(schedule, scheduler="cameo", duration=4.0, **overrides):
    ls = make_latency_sensitive_job("ls0", source_count=2)
    ba = make_bulk_analytics_job("ba0", source_count=2)
    engine = StreamEngine(
        EngineConfig(scheduler=scheduler, nodes=2, workers_per_node=2,
                     seed=3, fault_schedule=schedule, **overrides),
        [ls, ba],
    )
    drive_all_sources(engine, ls, lambda s, i: PeriodicArrivals(1 / 20.0),
                      sizer=FixedBatchSize(200), until=duration)
    drive_all_sources(engine, ba, lambda s, i: PeriodicArrivals(1 / 5.0),
                      sizer=FixedBatchSize(200), until=duration)
    return engine


def test_crash_failover_and_restart_end_to_end():
    schedule = FaultSchedule(crashes=[CrashWindow(node=1, start=1.0, end=2.5)])
    engine = _faulted_engine(schedule)
    nodes_during_outage: list[int] = []

    def snapshot():
        nodes_during_outage.extend(
            op.node_id for op in engine.operator_runtimes
        )

    # well after detection (timeout 0.2 + sweep 0.05), well before restart
    engine.sim.schedule_at(2.0, snapshot)
    engine.run(until=6.0)
    metrics = engine.metrics
    assert metrics.crashes == 1
    assert metrics.node_restarts == 1
    # every operator was evacuated off the dead node by t=2.0
    assert nodes_during_outage and all(n == 0 for n in nodes_during_outage)
    # detection latency bounded by timeout + sweep interval
    (node_id, crashed_at, detected_at), = metrics.failure_detections
    assert node_id == 1
    assert crashed_at == pytest.approx(1.0)
    assert 0 < detected_at - crashed_at <= 0.2 + 0.05 + 1e-9
    # the run survived: outputs kept flowing after the crash
    ls_job = metrics.job("ls0")
    assert any(t > 2.5 for t in ls_job.output_times)
    # fail-over replayed unacked work: retransmissions happened
    assert metrics.retransmissions > 0
    report = metrics.fault_report()
    assert report["crashes"] == 1 and report["node_restarts"] == 1
    # timeline recorded the whole arc
    kinds = [kind for _, kind, _ in engine.fault_timeline.events]
    for expected in ("crash", "failover", "restart"):
        assert expected in kinds


def test_lossy_run_makes_progress_without_crashes():
    schedule = FaultSchedule(losses=[ChannelLoss(rate=0.05, scope="remote")])
    engine = _faulted_engine(schedule)
    engine.run(until=6.0)
    assert engine.metrics.messages_lost_network > 0
    assert engine.metrics.retransmissions > 0
    assert engine.metrics.job("ls0").output_count > 0
    # retention is released by processed-acks; only a *final* ack lost on a
    # then-quiet channel can leave an entry behind (retransmission stops at
    # admission, by design), so the residue is bounded by the acks lost
    assert engine.reliable.unacked_total() <= engine.metrics.acks_lost


def test_deadline_shedding_drops_expired_work():
    # the delay spike expires in-flight LS deadlines; with shedding on,
    # the expired messages are dropped unexecuted
    schedule = FaultSchedule(
        delay_spikes=[DelaySpike(start=1.0, end=2.0, factor=1.0, extra=1.5)])
    engine = _faulted_engine(schedule, shed_expired=True)
    engine.run(until=6.0)
    shed = engine.metrics.job("ls0").messages_shed
    assert shed > 0
    assert engine.metrics.shed_totals()[0] >= shed
    # shed work still acks: nothing left stuck in retransmit buffers
    assert engine.reliable.unacked_total() == 0


def test_empty_schedule_installs_no_fault_machinery():
    engine = _faulted_engine(FaultSchedule())
    assert engine.reliable is None
    assert engine.recovery is None
    assert engine.fault_injector is None
    assert engine.fault_timeline is None
    engine.run(until=6.0)
    assert engine.metrics.fault_report()["crashes"] == 0


# ---------------------------------------------------------------------------
# retransmit-backoff time accounting
# ---------------------------------------------------------------------------


def test_backoff_time_accrues_on_lossy_channels():
    """Every retransmitting timer expiry charges the arming-to-expiry stall
    to both the hub total and the per-channel breakdown."""
    _, reliable = _drive_lossy_channel(0.5, seed=42, count=20)
    hub_total = reliable._metrics.retransmit_backoff_time
    assert hub_total > 0.0
    by_channel = reliable.backoff_by_channel()
    assert by_channel, "a retransmitting channel must appear in the report"
    channel_total = sum(c["backoff_time"] for c in by_channel.values())
    assert hub_total == pytest.approx(channel_total)
    channel_retx = sum(c["retransmissions"] for c in by_channel.values())
    assert channel_retx == reliable._metrics.retransmissions > 0
    for entry in by_channel.values():
        # each replay waited at least the initial RTO (backoff only grows)
        assert entry["backoff_time"] >= 0.05


def test_lossless_channels_accrue_no_backoff():
    _, reliable = _drive_lossy_channel(0.0, seed=42, count=20)
    assert reliable._metrics.retransmit_backoff_time == 0.0
    assert reliable.backoff_by_channel() == {}


def test_fault_report_exposes_backoff_time():
    schedule = FaultSchedule(losses=[ChannelLoss(rate=0.2, scope="remote")])
    engine = _faulted_engine(schedule)
    engine.run(until=6.0)
    report = engine.metrics.fault_report()
    assert report["retransmissions"] > 0
    assert report["retransmit_backoff_time"] > 0.0
    by_channel = engine.reliable.backoff_by_channel()
    assert sum(c["backoff_time"] for c in by_channel.values()) == \
        pytest.approx(report["retransmit_backoff_time"])
