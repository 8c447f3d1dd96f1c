"""Integration tests of the process-backed execution backend.

Parity: a 1-worker mp run replays the exact ingest trace the sim backend
would feed its transport, and per-stage message counts depend only on the
logical times and per-channel FIFO order — so the completion aggregates
(messages per stage, sink outputs, ingested tuples) must match the sim
backend exactly, for every scheduler.

Reliability: with the fault schedule's loss windows injected on the
receiving side of the real pipes, the go-back-N layer must retransmit
until every message is admitted exactly once, in order (FIFO audit stays
zero) — same aggregates as the loss-free sim run.  A loss window means
what it means on sim: a ``"local"`` scope drops nothing (every pipe is a
remote link), and a window that closes stops dropping.  The audit itself
is shown to be live: re-ordered admissions trip it.

Full pipes: two workers flooding each other with frames far larger than a
socket buffer must drain each other and quiesce, not both block in a write.

Fail-over: killing a worker process mid-run (a crash window of the fault
schedule: its node is killed at the window start, for good) must be detected by heartbeat
staleness, its operators reassigned to the survivors, each moved source
resumed by its new owner past its processed watermark (twice over, when
the new owner dies too), and the run must still quiesce cleanly with
outputs produced after the detection instant — without the survivor
spinning on the dead peer's pipe.

One message path: the worker runs the node runtime's dispatch loop and the
transport's send path (identity-pinned), so what they record — schedule
timeline, source back-pressure, deadline shedding — is recorded on mp too.

One quantum per loop turn: a worker holds an operator whose quantum ends
with mail left and returns to its pipes; the next turn resumes it unless
a strictly more urgent operator waits.  End of run: the coordinator's
two-wave probe (``EndOfRun``) ends a flooded run within a heartbeat
interval of its last completion.
"""

from __future__ import annotations

import resource
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.context import ReplyContext
from repro.dataflow.operators import OpAddress
from repro.experiments.common import TenantMix, run_tenant_mix
from repro.runtime.config import HEARTBEAT_INTERVAL, EngineConfig
from repro.runtime.engine import StreamEngine, make_engine
from repro.runtime.mp.coordinator import EndOfRun
from repro.runtime.mp.engine import MpStreamEngine
from repro.runtime.mp.ingest import ingest_slack, sequence_trace, shard_by_owner
from repro.runtime.mp.reliable import MpReliableDelivery
from repro.runtime.mp.transport import ProcessTransport
from repro.runtime.mp.worker import MpWorker
from repro.runtime.node import NodeRuntime
from repro.runtime.topology import client_key
from repro.runtime.transport import Transport
from repro.sim.faults import ChannelLoss, CrashWindow, FaultSchedule
from repro.workloads.tenants import (
    make_bulk_analytics_job,
    make_latency_sensitive_job,
)


def _small_mix() -> TenantMix:
    return TenantMix(
        ls_count=1, ba_count=1, ls_sources=2, ba_sources=2, tuples_per_msg=200
    )


def _aggregates(engine) -> dict:
    out = {}
    for name in engine.metrics.job_names:
        job = engine.metrics.job(name)
        out[name] = {
            "messages": job.messages_processed,
            "outputs": job.output_count,
            "ingested": job.tuples_ingested,
            "processed": job.tuples_processed,
            "stages": {k: v.count for k, v in job.execution.items()},
        }
    return out


class TestBackendSelector:
    def test_sim_default(self):
        config = EngineConfig(nodes=1, workers_per_node=1)
        engine = make_engine(config, _small_mix().build_jobs())
        assert isinstance(engine, StreamEngine)

    def test_mp_selected(self):
        config = EngineConfig(nodes=1, workers_per_node=1, backend="mp")
        engine = make_engine(config, _small_mix().build_jobs())
        assert isinstance(engine, MpStreamEngine)

    def test_mp_engine_rejects_sim_config(self):
        config = EngineConfig(nodes=1, workers_per_node=1)
        with pytest.raises(ValueError, match="backend"):
            MpStreamEngine(config, _small_mix().build_jobs())


_SIM_CACHE: dict = {}


def _sim_aggregates(scheduler: str) -> dict:
    """Sim-backend reference aggregates, computed once per scheduler."""
    if scheduler not in _SIM_CACHE:
        engine = run_tenant_mix(
            scheduler, _small_mix(), duration=2.0, drain=1.0, nodes=1, seed=3
        )
        _SIM_CACHE[scheduler] = _aggregates(engine)
    return _SIM_CACHE[scheduler]


class TestSimParity:
    """1-worker parity matrix: with sampled costs realised as sleeps the
    mp backend must reproduce the sim backend's completion aggregates
    exactly — realising a cost in wall time may change wall-clock timing,
    never the logical outcome (the flooded tests below pin ``"none"``)."""

    @pytest.mark.parametrize("scheduler", ("cameo", "orleans", "fifo"))
    @pytest.mark.parametrize("cost_mode", ("sleep",))
    def test_one_worker_matches_sim_aggregates(self, scheduler, cost_mode):
        mp = run_tenant_mix(
            scheduler, _small_mix(), duration=2.0, drain=1.0, nodes=1, seed=3,
            config_overrides={"backend": "mp", "mp_cost_mode": cost_mode},
        )
        assert _aggregates(mp) == _sim_aggregates(scheduler)
        assert mp.info["fifo_violations"] == 0
        assert not mp.info["forced_stop"]
        assert mp.info["cost_mode"] == cost_mode
        # real execution produced real latencies
        for name in mp.metrics.job_names:
            assert all(lat > 0 for lat in mp.metrics.job(name).latencies)


#: replay as fast as the workers absorb it, sampled costs not realised
_FLOODED = {"backend": "mp", "mp_realtime": False, "mp_cost_mode": "none"}


class TestOneMessagePath:
    def test_mp_runs_the_sim_classes_message_path(self):
        """The mp backend overrides how a cost is spent and how a message
        leaves the process — not the per-message path itself."""
        assert ProcessTransport._send is Transport._send
        assert ProcessTransport.route_emissions is Transport.route_emissions
        assert MpWorker._run_op is NodeRuntime._run_op
        assert MpWorker._finish_message is NodeRuntime._finish_message

    def test_schedule_timeline_has_one_point_per_message_start(self):
        placed = {}
        for backend, overrides in (("sim", {}), ("mp", _FLOODED)):
            engine = run_tenant_mix(
                "cameo", _small_mix(), duration=2.0, drain=1.0, nodes=1, seed=3,
                config_overrides={"record_timeline": True, **overrides},
            )
            timeline = engine.metrics.timeline
            assert len(timeline) == engine.metrics.total_messages > 0
            assert all(entry[5] <= entry[0] for entry in timeline)
            placed[backend] = Counter(entry[1:4] for entry in timeline)
        assert placed["mp"] == placed["sim"]

    def test_source_back_pressure_delays_and_never_drops(self):
        mp = run_tenant_mix(
            "cameo", _small_mix(), duration=2.0, drain=1.0, nodes=1, seed=3,
            config_overrides={"source_mailbox_capacity": 1, **_FLOODED},
        )
        assert not mp.info["forced_stop"]
        for name in mp.metrics.job_names:
            job = mp.metrics.job(name)
            assert job.backpressure_events > 0
            assert job.max_source_mailbox == 1
        assert _aggregates(mp) == _sim_aggregates("cameo")

    def test_expired_messages_are_shed_at_the_source_and_still_acked(self):
        """An LS constraint no message can meet: with ``shed_expired`` every
        LS message is dropped when its source pops it, the BA job computes
        what it computes unshed, and the run still quiesces — shed work
        acks its ingest watermark and its remote channel like executed
        work."""
        mix = _small_mix()
        mix.ls_latency = 1e-4
        mp = run_tenant_mix(
            "cameo", mix, duration=2.0, drain=1.0, nodes=2, seed=3,
            config_overrides={"backend": "mp", "shed_expired": True},
        )
        assert not mp.info["forced_stop"]
        assert mp.info["fifo_violations"] == 0
        ls = mp.metrics.job("ls0")
        assert ls.messages_processed == 0
        assert ls.messages_shed == 4  # 2 sources x 1 msg/s x 2 s
        assert _aggregates(mp)["ba0"] == _sim_aggregates("cameo")["ba0"]


def _lossy_mp(*losses):
    """The small mix on two workers under a schedule of ``losses``."""
    return run_tenant_mix(
        "cameo", _small_mix(), duration=2.0, drain=1.0, nodes=2, seed=3,
        config_overrides={"backend": "mp",
                          "fault_schedule": FaultSchedule(losses=losses)},
    )


class TestLossyChannels:
    def test_go_back_n_recovers_under_loss(self):
        mix = _small_mix()
        sim = run_tenant_mix("cameo", mix, duration=2.0, drain=1.0, nodes=2, seed=3)
        mp = _lossy_mp(ChannelLoss(rate=0.15, scope="all"))
        assert mp.metrics.messages_lost_network > 0
        assert mp.metrics.retransmissions >= mp.metrics.messages_lost_network
        assert mp.info["fifo_violations"] == 0
        assert not mp.info["forced_stop"]
        # loss is fully masked: same completion aggregates as the clean sim
        assert _aggregates(mp) == _aggregates(sim)

    def test_backoff_time_is_counted(self):
        """A retransmission follows a stall on the channel's timer, and the
        one driver counts that stall on this backend as on the sim."""
        mp = _lossy_mp(ChannelLoss(rate=0.15, scope="all"))
        assert mp.metrics.retransmissions > 0
        assert mp.metrics.retransmit_backoff_time > 0
        assert not mp.info["forced_stop"]

    def test_backoff_is_reported_per_channel(self):
        """Every worker reports its driver's per-channel table, and the
        merged table decomposes the hub total, as on the sim."""
        mp = _lossy_mp(ChannelLoss(rate=0.15, scope="all"))
        table = mp.backoff_by_channel()
        assert table
        total = sum(entry["backoff_time"] for entry in table.values())
        assert total == pytest.approx(mp.metrics.retransmit_backoff_time,
                                      rel=0, abs=1e-9)
        assert (sum(entry["retransmissions"] for entry in table.values())
                == mp.metrics.retransmissions)

    def test_local_loss_drops_nothing(self):
        """Every pipe links two nodes, so a same-node loss has no link to
        act on."""
        mp = _lossy_mp(ChannelLoss(rate=0.5, scope="local"))
        assert mp.metrics.messages_lost_network == 0
        assert mp.metrics.retransmissions == 0
        assert not mp.info["forced_stop"]

    def test_loss_closes_with_its_window(self):
        """Every remote entry of the first half second is lost; once the
        window closes, go-back-N gets everything through and the run
        quiesces with the clean sim's aggregates.  A window that never
        closed would hold the run until its wall limit."""
        mix = _small_mix()
        sim = run_tenant_mix("cameo", mix, duration=2.0, drain=1.0, nodes=2, seed=3)
        mp = _lossy_mp(ChannelLoss(rate=1.0, scope="remote", end=0.5))
        assert mp.metrics.messages_lost_network > 0
        assert mp.info["fifo_violations"] == 0
        assert not mp.info["forced_stop"]
        assert _aggregates(mp) == _aggregates(sim)


class TestFifoAudit:
    def test_reordered_admission_trips_the_audit(self, monkeypatch):
        """``info["fifo_violations"]`` is a live check, not a constant.
        Reading every ``DATA`` frame back to front alone changes nothing:
        the receiver half buffers the early arrivals and admits the batch
        in sequence order.  A reliable layer that then hands that batch to
        the admission callback back to front (the forked workers inherit
        both patches) is caught by the admission audit and reported."""
        on_entries = ProcessTransport.on_entries
        on_data = MpReliableDelivery.on_data
        monkeypatch.setattr(
            ProcessTransport, "on_entries",
            lambda self, entries: on_entries(self, entries[::-1]),
        )
        config = {"backend": "mp", "mp_realtime": False, "mp_cost_mode": "none"}
        mp = run_tenant_mix("cameo", _small_mix(), duration=2.0, drain=1.0,
                            nodes=2, seed=3, config_overrides=config)
        assert not mp.info["forced_stop"]
        assert mp.info["fifo_violations"] == 0

        def reversed_admissions(self, msg):
            admit, batch = self._admit, []
            self._admit = lambda *args: batch.append(args)
            try:
                on_data(self, msg)
            finally:
                self._admit = admit
            for args in reversed(batch):
                admit(*args)

        monkeypatch.setattr(MpReliableDelivery, "on_data", reversed_admissions)
        mp = run_tenant_mix("cameo", _small_mix(), duration=2.0, drain=1.0,
                            nodes=2, seed=3, config_overrides=config)
        assert not mp.info["forced_stop"]
        assert mp.info["fifo_violations"] > 0


class TestFullPipes:
    def test_flooded_full_pipes_drain_each_other(self):
        """Two workers flood each other with 5000-tuple messages (DATA
        frames far above a socket buffer) on round-robin placement.  Each
        holds its dispatch while a frame waits on a full pipe but keeps
        reading, so both drain and the run quiesces — it is not stopped at
        the wall limit with both workers blocked in a write."""
        mix = TenantMix(ls_count=1, ba_count=1, ls_sources=2, ba_sources=2,
                        tuples_per_msg=5000, ba_msg_rate=40.0)
        mp = run_tenant_mix(
            "cameo", mix, duration=2.0, drain=0.0, nodes=2, workers_per_node=1,
            seed=3, config_overrides={
                **_FLOODED, "placement": "round_robin", "mp_wall_timeout": 15.0,
            },
        )
        assert not mp.info["forced_stop"]
        assert mp.info["fifo_violations"] == 0
        for name in mp.metrics.job_names:
            job = mp.metrics.job(name)
            assert job.tuples_ingested > 0
            assert job.tuples_processed == job.tuples_ingested


def _ingest(worker: MpWorker, job: str, count: int, seq: int = 0) -> None:
    """Admit ``count`` ingest entries to ``job``'s source on ``worker``."""
    times = np.linspace(0.0, 0.5, 10)
    worker.transport.on_ingest([
        (client_key(job, "source", 0), seq + i, 0.0, times, np.ones(10),
         np.ones(10, dtype=np.int64), True)
        for i in range(count)
    ])


class TestOneQuantumPerTurn:
    """``MpWorker._dispatch_quantum`` runs one quantum and returns to the
    pipe loop, on an in-process worker (node 0 of two, nothing forked).
    With ``quantum=0`` every message ends a quantum, so one call is one
    message and the test is free of timing.  Each job is one source and
    single-instance stages, placed round-robin: both sources on node 0,
    their ``agg0`` on node 1, so what a source emits goes into an outbox
    and never onto this worker's run queue."""

    def _worker(self) -> MpWorker:
        config = EngineConfig(backend="mp", nodes=2, workers_per_node=1,
                              placement="round_robin", quantum=0.0, seed=3)
        jobs = [make_bulk_analytics_job("ba", source_count=1, agg_parallelism=1),
                make_latency_sensitive_job("ls", source_count=1, agg_parallelism=1)]
        worker = MpWorker(0, config, jobs)
        assert {address.stage for address, op_rt in worker._ops.items()
                if op_rt.node_id == 0} == {"source", "agg1"}
        return worker

    def test_a_long_mailbox_is_held_across_turns_not_drained(self):
        worker = self._worker()
        source = worker._ops[OpAddress("ba", "source", 0)]
        _ingest(worker, "ba", 20)
        queue, slot = worker.run_queue, worker.workers[0]
        assert worker._dispatch_quantum()
        assert len(source.mailbox) == 19, "one call drained the mailbox"
        assert slot.current_op is source and source.busy
        assert not worker._idle()  # a held operator is work
        pops = queue.pops
        assert worker._dispatch_quantum()
        assert queue.pops == pops  # resumed without a run-queue pop
        assert len(source.mailbox) == 18 and slot.current_op is source

    def test_a_more_urgent_arrival_swaps_the_held_operator_out(self):
        worker = self._worker()
        ba_source = worker._ops[OpAddress("ba", "source", 0)]
        ls_source = worker._ops[OpAddress("ls", "source", 0)]
        _ingest(worker, "ba", 20)
        queue, slot = worker.run_queue, worker.workers[0]
        assert worker._dispatch_quantum()
        assert slot.current_op is ba_source
        # an LS message (0.8 s constraint) outranks the BA source (7200 s)
        _ingest(worker, "ls", 1)
        assert worker._dispatch_quantum()
        assert len(ls_source.mailbox) == 0 and slot.current_op is None
        # the held BA source was requeued, untouched
        assert not ba_source.busy and len(ba_source.mailbox) == 19
        assert queue.pending_operator_count() == 1
        assert worker._dispatch_quantum()
        assert slot.current_op is ba_source and len(ba_source.mailbox) == 18


class _Mailbox:
    """A mailbox stub: empty, or one message of global priority ``head``."""

    def __init__(self, head: float | None = None):
        self.head = head

    def __len__(self) -> int:
        return 0 if self.head is None else 1

    def head_global_priority(self) -> float:
        return self.head


class TestIngestGate:
    """``MpWorker._admits_ingest``: before a pump, the batch the pump would
    admit first is compared with what is runnable — the run queue's best
    key (stubbed here) and the held operator's head.  The worker is node 0
    of two, in process; its shard holds one entry of each job's source."""

    NOW = 5.0

    def _worker(self, **overrides) -> MpWorker:
        config = EngineConfig(backend="mp", nodes=2, workers_per_node=1,
                              placement="round_robin", mp_realtime=False,
                              seed=3, **overrides)
        jobs = [make_bulk_analytics_job("ba", source_count=1, agg_parallelism=1),
                make_latency_sensitive_job("ls", source_count=1, agg_parallelism=1)]
        timed, _ = sequence_trace([
            (0.0, client_key("ba", "source", 0), None, None, None, True),
            (0.1, client_key("ls", "source", 0), None, None, None, True),
        ])
        shard = shard_by_owner(timed, lambda key: 0, 1,
                               ingest_slack(config, jobs))[0]
        return MpWorker(0, config, jobs, shard=shard)

    def _runnable(self, worker: MpWorker, queued: float | None = None,
                  held: float | None = None) -> None:
        worker.run_queue = SimpleNamespace(peek_best_priority=lambda: queued)
        worker.workers[0].current_op = SimpleNamespace(mailbox=_Mailbox(held))

    def _admitted(self, worker: MpWorker, now: float = NOW) -> float:
        """The LS batch goes first; its priority is Eq. 3 at ``now``."""
        src_key = worker._ingest.peek(now)
        assert src_key == client_key("ls", "source", 0)
        admitted = worker.transport.admission_priority(src_key, now)
        assert now < admitted <= now + 0.8
        return admitted

    def test_open_when_nothing_is_runnable(self):
        worker = self._worker()
        self._runnable(worker)
        assert worker._admits_ingest(self.NOW)
        worker.workers[0].current_op = None
        assert worker._admits_ingest(self.NOW)

    def test_closed_while_a_queued_operator_is_strictly_more_urgent(self):
        worker = self._worker()
        admitted = self._admitted(worker)
        self._runnable(worker, queued=admitted - 1e-3)
        assert not worker._admits_ingest(self.NOW)
        self._runnable(worker, queued=admitted)  # as urgent: pump
        assert worker._admits_ingest(self.NOW)
        self._runnable(worker, queued=admitted + 1.0)
        assert worker._admits_ingest(self.NOW)

    def test_closed_while_the_held_operator_is_strictly_more_urgent(self):
        worker = self._worker()
        admitted = self._admitted(worker)
        self._runnable(worker, held=admitted - 1e-3)
        assert not worker._admits_ingest(self.NOW)
        self._runnable(worker, queued=admitted + 1.0, held=admitted - 1e-3)
        assert not worker._admits_ingest(self.NOW)
        self._runnable(worker, held=admitted)
        assert worker._admits_ingest(self.NOW)

    @pytest.mark.parametrize("policy, cost", [("llf", 0.25), ("edf", 0.0)])
    def test_the_estimate_is_the_policys_deadline(self, policy, cost):
        """Eq. 3 from the source stage's latest reply (EDF drops C_oM)."""
        worker = self._worker(policy=policy)
        src_key = client_key("ls", "source", 0)
        worker.transport._client_converters[src_key].process_reply(
            "source", ReplyContext(c_m=0.25, c_path=0.125))
        assert worker.transport.admission_priority(src_key, self.NOW) == (
            self.NOW + 0.8 - cost - 0.125)

    def test_closed_gate_still_runs_the_urgent_work(self):
        """A real run queue: the gate holds the pump only while an operator
        is runnable, and that operator runs in the same turn."""
        worker = self._worker()
        _ingest(worker, "ls", 1)
        queue = worker.run_queue
        now = worker.sim.now  # after the message's admission
        assert queue.peek_best_priority() < self._admitted(worker, now)
        assert not worker._admits_ingest(now)
        assert worker._dispatch_quantum()
        assert worker.workers[0].current_op is None
        assert queue.peek_best_priority() is None
        assert worker._admits_ingest(now)

    @pytest.mark.parametrize("overrides", [
        {"scheduler": "fifo"}, {"scheduler": "orleans"},
        {"policy": "token", "policy_kwargs": {"rates": {"ls": 1.0, "ba": 1.0}}},
    ], ids=["fifo", "orleans", "token"])
    def test_always_open_without_a_deadline_order(self, overrides):
        worker = self._worker(**overrides)
        self._runnable(worker, queued=-1.0, held=-1.0)
        assert worker._admits_ingest(self.NOW)
        # and the shard replays in trace order
        assert worker._ingest.peek(self.NOW) == client_key("ba", "source", 0)


class TestEndOfRun:
    """The coordinator's two-wave rule (``EndOfRun``): wave one is every
    live worker's latest heartbeat, wave two its answer to a probe sent
    after all of them; the run ends only when every answer is idle with
    its wave-one admission count."""

    ALIVE = {0, 1}

    def _round(self) -> tuple[EndOfRun, int]:
        end = EndOfRun()
        end.report(0, True, 5, 0)
        assert end.probe(self.ALIVE) is None  # node 1 never reported idle
        end.report(1, True, 3, 0)
        probe = end.probe(self.ALIVE)
        assert probe is not None
        assert end.probe(self.ALIVE) is None  # one round at a time
        return end, probe

    def test_unchanged_idle_answers_end_the_run(self):
        end, probe = self._round()
        end.report(0, True, 5, probe)
        assert not end.done(self.ALIVE)
        end.report(1, True, 3, probe)
        assert end.done(self.ALIVE)

    def test_a_stale_idle_report_then_a_changed_count_does_not_end_it(self):
        """Node 1's wave-one report was stale: it admitted work since.  Its
        answer names the probe and is idle, but the count moved."""
        end, probe = self._round()
        end.report(0, True, 5, probe)
        end.report(1, True, 4, probe)
        assert not end.done(self.ALIVE)
        # a fresh round takes the new count as its wave one
        second = end.probe(self.ALIVE)
        assert second == probe + 1
        end.report(0, True, 5, second)
        end.report(1, True, 4, probe)  # an answer to the old round
        assert not end.done(self.ALIVE)
        end.report(1, True, 4, second)
        assert end.done(self.ALIVE)

    def test_a_busy_answer_cancels_the_round(self):
        end, probe = self._round()
        end.report(0, False, 5, probe)
        end.report(1, True, 3, probe)
        assert not end.done(self.ALIVE)
        assert end.probe(self.ALIVE) is None  # node 0's latest is busy

    def test_a_failover_cancels_the_round(self):
        end, probe = self._round()
        end.report(0, True, 5, probe)
        end.cancel()
        end.report(1, True, 3, probe)
        assert not end.done(self.ALIVE)
        # node 0's report from before the fail-over no longer counts
        assert end.probe(self.ALIVE) is None
        assert end.probe({1}) is not None

    def test_a_flooded_run_ends_within_a_heartbeat_of_its_last_completion(self):
        """Once the last message completes, the workers' idle heartbeats
        go out at once and the probe round trip ends the run; waiting for
        two periodic idle heartbeats took about two intervals."""
        mix = TenantMix(ls_count=1, ba_count=1, ls_sources=2, ba_sources=2,
                        tuples_per_msg=200, ba_msg_rate=40.0)
        mp = run_tenant_mix(
            "cameo", mix, duration=10.0, drain=0.0, nodes=2, workers_per_node=1,
            seed=3, config_overrides={
                **_FLOODED, "placement": "round_robin",
                "record_timeline": True,
            },
        )
        assert not mp.info["forced_stop"]
        last = max(entry[0] for entry in mp.metrics.timeline)
        assert mp.info["wall_time"] - last < HEARTBEAT_INTERVAL


class TestFailOver:
    def test_worker_crash_converges_on_survivor(self):
        mix = _small_mix()
        config = EngineConfig(
            scheduler="cameo", nodes=2, workers_per_node=1, seed=3, backend="mp",
            fault_schedule=FaultSchedule(crashes=[CrashWindow(node=1, start=1.5)]),
        )
        jobs = mix.build_jobs()
        engine = make_engine(config, jobs)
        mix.install_drivers(engine, jobs, 4.0)
        engine.run(until=5.0)

        assert engine.metrics.crashes == 1
        assert len(engine.metrics.failure_detections) == 1
        node_id, crash_time, detect_time = engine.metrics.failure_detections[0]
        assert node_id == 1
        assert detect_time > crash_time
        assert engine.info["survivors"] == [0]
        assert not engine.info["forced_stop"]
        assert engine.info["fifo_violations"] == 0
        # the run kept producing after the failure was declared
        outputs_after = [
            t
            for name in engine.metrics.job_names
            for t in engine.metrics.job(name).output_times
            if t > detect_time
        ]
        assert outputs_after
        # at-least-once: nothing ingested was silently dropped
        for name in engine.metrics.job_names:
            job = engine.metrics.job(name)
            assert job.tuples_processed >= 0.99 * job.tuples_ingested

    def test_survivor_does_not_spin_on_the_dead_peer(self):
        """The crash scenario above, priced in CPU: once its peer is dead
        the survivor stops watching that pipe, so the workers' CPU stays
        near a crash-free run's (~0.2 s) instead of a read loop spinning
        on the dead end's EOF until the run ends (~2.4 s)."""
        mix = _small_mix()
        config = EngineConfig(
            scheduler="cameo", nodes=2, workers_per_node=1, seed=3, backend="mp",
            fault_schedule=FaultSchedule(crashes=[CrashWindow(node=1, start=1.5)]),
        )
        jobs = mix.build_jobs()
        engine = make_engine(config, jobs)
        mix.install_drivers(engine, jobs, 4.0)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        engine.run(until=5.0)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)

        children_cpu = (after.ru_utime + after.ru_stime
                        - before.ru_utime - before.ru_stime)
        assert not engine.info["forced_stop"]
        assert engine.info["survivors"] == [0]
        assert children_cpu < 1.0

    def test_flooded_failover_resumes_moved_sources_from_their_watermarks(self):
        """Fail-over during flooded replay: the survivor resumes each moved
        source from its own copy of the trace.

        With ``mp_realtime=False`` each worker floods its fork-inherited
        trace shard as fast as it can absorb it, so when node 1 dies much
        of its shard is still unprocessed.  The coordinator hands over
        only the processed watermark of every moved source; the survivor
        replays the rest of that source itself.  Delivery is
        at-least-once (what the dead worker processed but never reported
        runs again), per-channel FIFO order must survive the rewire, and
        every ingested tuple is processed.
        """
        mix = _small_mix()
        config = EngineConfig(
            scheduler="cameo", nodes=2, workers_per_node=1, seed=3,
            backend="mp", mp_realtime=False,
            fault_schedule=FaultSchedule(crashes=[CrashWindow(node=1, start=0.1)]),
        )
        jobs = mix.build_jobs()
        engine = make_engine(config, jobs)
        # a 20 s trace floods in ~0.45 s of wall time on a 2-core Xeon, so
        # a kill at 0.1 s lands mid-replay with much of node 1's shard left
        mix.install_drivers(engine, jobs, 20.0)
        engine.run(until=25.0)

        assert engine.metrics.crashes == 1
        assert len(engine.metrics.failure_detections) == 1
        node_id, crash_time, detect_time = engine.metrics.failure_detections[0]
        assert node_id == 1
        assert detect_time > crash_time
        assert engine.info["survivors"] == [0]
        assert not engine.info["forced_stop"]
        assert engine.info["fifo_violations"] == 0
        # one hand-over, moving node 1's sources; at least one of them
        # resumed below its last sequence number, so the survivor replayed
        # part of a source that was never in its shard
        _, last_seq = sequence_trace(engine._trace)
        (resumed,) = engine.info["resumed"]
        assert resumed
        assert any(mark < last_seq[src_key] for src_key, mark in resumed.items())
        for name in engine.metrics.job_names:
            job = engine.metrics.job(name)
            assert job.tuples_processed == job.tuples_ingested > 0

    def test_double_failover_hands_an_adopted_source_on(self):
        """Three workers; node 1 dies, then node 2, which adopted part of
        node 1's sources — including one it never held in its shard — so
        node 0 resumes that source from the second hand-over's watermark."""
        mix = TenantMix(ls_count=1, ba_count=1, ls_sources=4, ba_sources=4,
                        tuples_per_msg=200)
        config = EngineConfig(
            scheduler="cameo", nodes=3, workers_per_node=1, seed=3, backend="mp",
            fault_schedule=FaultSchedule(crashes=[
                CrashWindow(node=1, start=1.0), CrashWindow(node=2, start=2.0)]),
        )
        jobs = mix.build_jobs()
        engine = make_engine(config, jobs)
        mix.install_drivers(engine, jobs, 4.0)
        engine.run(until=5.0)

        assert not engine.info["forced_stop"]
        assert engine.info["survivors"] == [0]
        assert engine.metrics.crashes == 2
        assert [d[0] for d in engine.metrics.failure_detections] == [1, 2]
        assert engine.info["fifo_violations"] == 0
        first, second = engine.info["resumed"]
        assert set(first) & set(second), "no source was handed over twice"
        for name in engine.metrics.job_names:
            job = engine.metrics.job(name)
            assert job.tuples_processed == job.tuples_ingested > 0


class TestTraceCapture:
    def test_capture_is_deterministic(self):
        mix = _small_mix()
        traces = []
        for _ in range(2):
            config = EngineConfig(
                nodes=1, workers_per_node=1, seed=3, backend="mp"
            )
            jobs = mix.build_jobs()
            engine = make_engine(config, jobs)
            mix.install_drivers(engine, jobs, 2.0)
            engine.sim.run(until=2.0)  # capture only; never fork
            traces.append([
                (t, key, times.tobytes(), sorted_times)
                for t, key, times, _values, _keys, sorted_times in engine._trace
            ])
        assert traces[0] == traces[1]
        assert traces[0]  # non-empty

    def test_single_shot(self):
        config = EngineConfig(nodes=1, workers_per_node=1, backend="mp")
        jobs = _small_mix().build_jobs()
        engine = make_engine(config, jobs)
        engine.run(until=0.01)
        with pytest.raises(RuntimeError, match="single-shot"):
            engine.run(until=0.01)


class TestLateTuples:
    """``JobMetrics.late_tuples`` sums what the job's windowed operators
    dropped behind an emitted window, on either backend."""

    @pytest.mark.parametrize("backend", ("sim", "mp"))
    def test_one_late_batch_is_counted_per_job(self, backend):
        # size 1 s, slide 0.5 s: every tuple belongs to two windows
        late_job = make_latency_sensitive_job(
            "late", source_count=1, latency_constraint=30.0, slide=0.5)
        clean_job = make_latency_sensitive_job(
            "clean", source_count=1, latency_constraint=30.0, slide=0.5)
        engine = make_engine(
            EngineConfig(backend=backend, nodes=1, workers_per_node=2, seed=5),
            [late_job, clean_job],
        )
        on_time = [(0.5, [0.1, 0.4, 0.9]), (1.5, [1.2, 1.3]), (2.5, [2.1, 2.4])]
        for job in ("late", "clean"):
            for when, times in on_time:
                engine.sim.schedule_at(
                    when, engine.ingest, job, "source", 0, times, None, [0, 1, 2][:len(times)])
        # windows up to 2.0 are out by now: three tuples x two windows late
        engine.sim.schedule_at(
            3.0, engine.ingest, "late", "source", 0, [0.2, 0.3, 0.6], None, [0, 1, 2])
        engine.run(until=5.0)
        assert engine.metrics.job("late").late_tuples == 6
        assert engine.metrics.job("clean").late_tuples == 0
