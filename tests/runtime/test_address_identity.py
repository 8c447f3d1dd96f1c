"""One address object per operator, and one source-message builder.

Identity: the topology, the placement map and the cost profiler key each
operator by the operator's own ``OpAddress``, and every message carries
that object as its ``target`` and ``sender``, so the hot dict lookups of
both backends resolve on identity and never reach ``OpAddress.__eq__``.
On mp a worker's ``DataCodec`` decodes each defined address to the
receiving worker's own object, so the same holds across processes.

Parity: sim ``Transport.ingest`` and mp ``ProcessTransport.on_ingest``
build the source message with one helper.  For the same entry, and fresh
converters on each side, the two messages agree on everything but the
sender key's object — including an ingestion-time job (whose events are
stamped with the arrival instant on sim and the replayed trace time on
mp, equal here) and a source an mp worker adopted after a fail-over.
"""

from __future__ import annotations

import dataclasses
import socket

import numpy as np
import pytest

from repro.dataflow.messages import reset_message_ids
from repro.dataflow.operators import OpAddress
from repro.experiments.common import TenantMix
from repro.runtime.config import EngineConfig
from repro.runtime.engine import make_engine
from repro.runtime.mp.frames import DataCodec, PipeEnd
from repro.runtime.mp.ingest import IngestDriver, sequence_trace
from repro.runtime.mp.worker import MpWorker
from repro.runtime.topology import client_key
from repro.workloads.tenants import (
    make_bulk_analytics_job,
    make_latency_sensitive_job,
)


@pytest.fixture
def eq_calls(monkeypatch):
    """``[count, counting]``: ``OpAddress.__eq__`` calls made while the
    test has switched ``counting`` on."""
    counter = [0, False]
    raw = OpAddress.__eq__

    def counting(self, other):
        if counter[1]:
            counter[0] += 1
        return raw(self, other)

    monkeypatch.setattr(OpAddress, "__eq__", counting)
    return counter


class TestOneAddressPerOperator:
    def _engine(self):
        config = EngineConfig(nodes=2, workers_per_node=1, seed=3)
        mix = TenantMix(ls_count=1, ba_count=1, ls_sources=2, ba_sources=2,
                        tuples_per_msg=50)
        jobs = mix.build_jobs()
        engine = make_engine(config, jobs)
        mix.install_drivers(engine, jobs, 3.0)
        return engine

    def test_topology_placement_and_profiler_share_the_operators_address(self):
        engine = self._engine()
        assert engine._ops
        for key, op_rt in engine._ops.items():
            assert op_rt.address is key
        ops = engine._ops
        for key in engine.plan.placements:
            assert ops[key].address is key
        profiled = list(engine.profiler._estimates)
        assert len(profiled) == len(ops)
        for key in profiled:
            assert ops[key].address is key

    def test_a_sim_run_compares_no_addresses_after_wiring(self, eq_calls):
        engine = self._engine()
        eq_calls[1] = True
        engine.run(until=4.0)
        eq_calls[1] = False
        assert engine.metrics.total_messages > 0
        assert eq_calls[0] == 0

    def test_a_decoded_frame_carries_the_receivers_own_addresses(self, eq_calls):
        """Node 0 runs the source and sends to ``agg0`` on node 1 through a
        real socket pair; node 1 decodes, delivers and runs it and acks
        and replies back; node 0 decodes that.  No address is compared."""
        config = EngineConfig(backend="mp", nodes=2, workers_per_node=1,
                              placement="round_robin", quantum=0.0, seed=3)
        jobs = [make_bulk_analytics_job("ba", source_count=1, agg_parallelism=1)]
        end0, end1 = socket.socketpair()
        try:
            node0 = MpWorker(0, config, jobs, peer_pipes={1: PipeEnd(end0, 1)})
            node1 = MpWorker(1, config, jobs, peer_pipes={0: PipeEnd(end1, 0)})
            agg0 = node1._ops[OpAddress("ba", "agg0", 0)]
            assert agg0.node_id == 1
            times = np.linspace(0.0, 0.5, 10)
            eq_calls[1] = True
            node0.transport.on_ingest([(
                client_key("ba", "source", 0), 0, 0.0, times, np.ones(10),
                np.arange(10, dtype=np.int64), True)])
            assert node0._dispatch_quantum()
            node0._safe_flush()
            node1._read(node1._peers[0])
            assert len(agg0.mailbox) == 1
            assert node1._dispatch_quantum()
            node1._safe_flush()
            node0._read(node0._peers[1])
            eq_calls[1] = False
        finally:
            end0.close()
            end1.close()
        assert eq_calls[0] == 0
        assert node1.metrics.total_messages == 1
        # the ack came back: node 0's channel to agg0 has nothing in flight
        assert node0._delivery.outstanding_total() == 0

    def test_a_codec_maps_definitions_to_the_given_addresses(self):
        own = OpAddress("j", "s", 0)
        sender = OpAddress("j", "s", 0)
        frame = DataCodec().encode_data([("ack", (sender, "x"), 1, 1)])
        (_, (decoded, _), _, _), = DataCodec([own]).decode_data(frame)
        assert decoded is own
        # a bare codec still decodes, to a fresh equal address
        (_, (fresh, _), _, _), = DataCodec().decode_data(frame)
        assert fresh == own and fresh is not own and fresh is not sender


def _fields(msg) -> dict:
    """What the two backends must agree on for one source message."""
    batch = msg.batch
    return {
        "target": (msg.target.job, msg.target.stage, msg.target.index),
        "p": msg.p,
        "t": msg.t,
        "deps_arrival": msg.deps_arrival,
        "channel_index": msg.channel_index,
        "pc": None if msg.pc is None else dataclasses.asdict(msg.pc),
        "times": batch.logical_times.tolist(),
        "values": batch.values.tolist(),
        "keys": batch.keys.tolist(),
        "times_sorted": batch.times_sorted,
        "arrival_time": batch.arrival_time,
        "source_id": batch.source_id,
    }


class _Sent:
    """A stand-in span recorder that keeps every source message sent."""

    def __init__(self):
        self.messages: list = []

    def on_send(self, msg, parent_id, now) -> None:
        self.messages.append(msg)

    def on_admit(self, msg, now) -> None:
        pass


class _FixedClock:
    def __init__(self, now: float):
        self.now = now


class TestSourceMessageParity:
    #: the instant both backends ingest at (the sim clock after running
    #: to it, a fixed clock on mp; ingestion-time events carry it on both)
    AT = 0.75

    def _jobs(self) -> list:
        return [
            make_latency_sensitive_job("ls", source_count=2, agg_parallelism=1,
                                       time_domain="ingestion"),
            make_bulk_analytics_job("ba", source_count=2, agg_parallelism=1),
        ]

    def _entries(self) -> list:
        """``(src_key, seq, trace_time, times, values, keys, sorted)`` rows:
        unsorted event times, and per-source sequence numbers."""
        rng = np.random.default_rng(7)
        rows = []
        for job in ("ls", "ba"):
            for index in range(2):
                for _ in range(3):
                    times = rng.uniform(0.0, 0.7, 8)
                    rows.append((self.AT, client_key(job, "source", index), times,
                                 rng.uniform(0.0, 10.0, 8),
                                 rng.integers(0, 5, 8, dtype=np.int64), False))
        timed, _ = sequence_trace(rows)
        return timed

    def _sim(self, timed: list) -> list:
        config = EngineConfig(nodes=2, workers_per_node=1, seed=3)
        engine = make_engine(config, self._jobs())
        sent = _Sent()
        engine.transport.attach_tracer(sent)

        def ingest_all():
            for _, (src_key, _, _, times, values, keys, sorted_times) in timed:
                reset_message_ids()
                engine.transport.ingest(*src_key[1:], times, values=values,
                                        keys=keys, sorted_times=sorted_times)

        engine.sim.schedule_at(self.AT, ingest_all)
        engine.sim.run(until=self.AT)
        return sent.messages

    def _mp_transport(self):
        config = EngineConfig(backend="mp", nodes=2, workers_per_node=1, seed=3)
        worker = MpWorker(0, config, self._jobs())
        transport = worker.transport
        sent = _Sent()
        transport.attach_tracer(sent)
        transport.sim = _FixedClock(self.AT)
        return transport, sent

    def _admit(self, transport, entries: list) -> None:
        for entry in entries:
            reset_message_ids()
            transport.on_ingest([entry])

    def test_owned_sources_build_the_sim_message(self):
        timed = self._entries()
        transport, sent = self._mp_transport()
        self._admit(transport, [entry for _, entry in timed])
        sim = self._sim(timed)
        assert len(sim) == len(sent.messages) == len(timed)
        for sim_msg, mp_msg in zip(sim, sent.messages):
            assert _fields(mp_msg) == _fields(sim_msg)
            assert sim_msg.sender == mp_msg.sender
        # the ingestion-time job's events all carry the ingest instant
        ls = [m for m in sim if m.target.job == "ls"]
        assert ls and all(set(m.batch.logical_times) == {self.AT} for m in ls)
        assert all(m.batch.times_sorted for m in ls)
        assert not any(m.batch.times_sorted for m in sim if m.target.job == "ba")

    def test_an_adopted_source_builds_the_sim_message(self):
        """Node 0 adopts sources from the whole trace past their processed
        watermarks; the messages match the sim's for the same entries,
        and each adopted source's watermark is set from its first entry."""
        timed = self._entries()
        resume = {client_key("ls", "source", 1): 0, client_key("ba", "source", 1): 1}
        transport, sent = self._mp_transport()
        ingest = IngestDriver({}, realtime=False)
        ingest.adopt(timed, resume)
        while ingest.pump(self.AT, lambda entries: self._admit(transport, entries)):
            pass
        adopted = [item for item in timed
                   if item[1][0] in resume and item[1][1] > resume[item[1][0]]]
        sim = self._sim(adopted)
        assert len(sent.messages) == len(sim) == len(adopted) == 3
        for sim_msg, mp_msg in zip(sim, sent.messages):
            assert _fields(mp_msg) == _fields(sim_msg)
        # nothing processed yet: each watermark sits just below the first
        # entry seen, i.e. at the watermark the source resumed from
        assert transport.ingest_acks() == resume
