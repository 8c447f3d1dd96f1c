"""Unit tests for the mp backend's ingest replay.

Every source enters a worker through one :class:`IngestDriver`: the
shard the worker inherited, and after a fail-over the sources it adopts
from its own copy of the trace.  Paced pumping releases what is due on
the wall clock, flooded pumping ignores time, and adoption merges by
trace time without breaking any source's sequence order.  Under a
deadline-ordered run queue a shard is one FIFO per job, and the due head
with the earliest ``trace_time + L`` leaves first.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import TenantMix
from repro.runtime.config import EngineConfig
from repro.runtime.engine import make_engine
from repro.runtime.mp.ingest import (
    IngestDriver,
    ingest_slack,
    sequence_trace,
    shard_by_owner,
)
from repro.runtime.placement import place_operators


def _key(source: int, job: str = "j") -> tuple:
    return ("client", job, "src", source)


def _trace(*rows) -> list:
    """A sequenced trace of ``(trace_time, source)`` or ``(trace_time,
    source, job)`` rows (no payload)."""
    timed, _ = sequence_trace(
        [(when, _key(*row), None, None, None, True) for when, *row in rows])
    return timed


#: latency targets of the two-job tests: one latency-sensitive, one bulk
SLACK = {"ls": 0.8, "ba": 7200.0}


def _fifos(timed: list, slack: dict = SLACK) -> dict:
    """The FIFOs of a one-node shard, split by latency target as
    :func:`shard_by_owner` splits it for deadline-ordered admission."""
    return shard_by_owner(timed, lambda src_key: 0, 1, slack)[0]


def _pumped(ingest: IngestDriver, now: float, chunk: int = 256) -> list:
    """``(source, seq, trace_time)`` of what one pump releases."""
    out: list = []
    ingest.pump(now, out.extend, chunk)
    return [(entry[0][3], entry[1], entry[2]) for entry in out]


class TestPump:
    def test_paced_pump_releases_only_due_entries_chunk_at_a_time(self):
        timed = _trace((0.0, 0), (0.1, 0), (0.2, 0), (0.3, 0), (0.4, 0), (1.0, 0))
        ingest = IngestDriver({None: timed}, realtime=True)
        assert _pumped(ingest, 0.35, chunk=2) == [(0, 0, 0.0), (0, 1, 0.1)]
        assert _pumped(ingest, 0.35, chunk=2) == [(0, 2, 0.2), (0, 3, 0.3)]
        assert not ingest.pump(0.35, [].extend, 2)
        assert ingest.next_due() == 0.4
        assert ingest.remaining == 2 and not ingest.exhausted
        assert _pumped(ingest, 5.0) == [(0, 4, 0.4), (0, 5, 1.0)]
        assert ingest.exhausted and ingest.next_due() is None

    def test_flooded_pump_ignores_time(self):
        timed = _trace((10.0, 0), (20.0, 1), (30.0, 0))
        ingest = IngestDriver({None: timed}, realtime=False)
        assert _pumped(ingest, 0.0, chunk=2) == [(0, 0, 10.0), (1, 0, 20.0)]
        assert _pumped(ingest, 0.0, chunk=2) == [(0, 1, 30.0)]
        assert ingest.exhausted


class TestAdopt:
    #: the whole trace: this worker owns source 0, a dead node owned 1 and
    #: 2, and the fail-over hands this worker source 1 only
    TRACE = ((0.0, 0), (0.5, 1), (1.0, 0), (1.5, 1), (2.0, 0), (2.0, 1),
             (2.5, 2), (3.0, 0), (3.5, 1))

    def _ingest(self) -> tuple[IngestDriver, list]:
        timed = _trace(*self.TRACE)
        shard = [item for item in timed if item[1][0] == _key(0)]
        return IngestDriver({None: shard}, realtime=True), timed

    def test_merges_by_trace_time_and_keeps_each_sources_order(self):
        ingest, timed = self._ingest()
        assert _pumped(ingest, 1.2) == [(0, 0, 0.0), (0, 1, 1.0)]
        # source 1 was processed up to seq 0 by its dead owner
        ingest.adopt(timed, {_key(1): 0})
        released = _pumped(ingest, 10.0)
        assert released == [(1, 1, 1.5), (0, 2, 2.0), (1, 2, 2.0),
                            (0, 3, 3.0), (1, 3, 3.5)]
        assert all(source != 2 for source, _, _ in released)

    def test_overdue_adopted_entries_go_out_on_the_next_pump(self):
        ingest, timed = self._ingest()
        assert _pumped(ingest, 2.7) == [(0, 0, 0.0), (0, 1, 1.0), (0, 2, 2.0)]
        ingest.adopt(timed, {_key(1): -1})  # nothing of source 1 processed
        assert ingest.next_due() == 0.5
        assert _pumped(ingest, 2.7) == [(1, 0, 0.5), (1, 1, 1.5), (1, 2, 2.0)]
        assert ingest.next_due() == 3.0
        assert ingest.remaining == 2

    def test_a_fully_processed_source_adds_nothing(self):
        ingest, timed = self._ingest()
        ingest.adopt(timed, {_key(1): 3})
        assert [source for source, _, _ in _pumped(ingest, 10.0)] == [0, 0, 0, 0]


def _released(ingest: IngestDriver, now: float, chunk: int = 256) -> list:
    """``(job, source, seq, trace_time)`` of what one pump releases."""
    out: list = []
    ingest.pump(now, out.extend, chunk)
    return [(entry[0][1], entry[0][3], entry[1], entry[2]) for entry in out]


def _contiguous_per_source(entries: list) -> bool:
    """Each source's sequence numbers leave as 0, 1, 2, ... with no gap."""
    last: dict = {}
    for entry in entries:
        src_key, seq = entry[0], entry[1]
        if seq != last.get(src_key, -1) + 1:
            return False
        last[src_key] = seq
    return True


class TestDeadlineOrder:
    #: two jobs, two sources each, interleaved in trace order
    TRACE = ((0.0, 0, "ba"), (0.1, 0, "ls"), (0.2, 1, "ba"), (0.3, 1, "ls"),
             (0.4, 0, "ba"), (0.5, 0, "ls"), (0.6, 1, "ba"), (0.7, 1, "ls"),
             (0.8, 0, "ba"), (0.9, 1, "ls"))

    def test_flooded_every_ls_entry_leaves_before_any_ba_entry(self):
        ingest = IngestDriver(_fifos(_trace(*self.TRACE)), realtime=False,
                              slack=SLACK)
        out: list = []
        while ingest.pump(0.0, out.extend, chunk=3):
            pass
        assert [entry[0][1] for entry in out] == ["ls"] * 5 + ["ba"] * 5
        # within a job, trace order: its two sources stay interleaved
        assert [entry[2] for entry in out] == [0.1, 0.3, 0.5, 0.7, 0.9,
                                               0.0, 0.2, 0.4, 0.6, 0.8]
        assert _contiguous_per_source(out)

    def test_paced_only_due_heads_compete(self):
        timed = _trace((0.0, 0, "ba"), (0.5, 0, "ba"), (1.0, 0, "ls"),
                       (1.1, 0, "ba"), (1.9, 0, "ls"))
        ingest = IngestDriver(_fifos(timed), realtime=True, slack=SLACK)
        # the LS entry is the more urgent one, but not due yet
        assert ingest.peek(0.6) == _key(0, "ba")
        assert _released(ingest, 0.6) == [("ba", 0, 0, 0.0), ("ba", 0, 1, 0.5)]
        assert ingest.peek(0.6) is None and ingest.next_due() == 1.0
        # both heads due: LS (deadline 1.8) goes before BA (7201.1)
        assert ingest.peek(1.2) == _key(0, "ls")
        assert _released(ingest, 1.2) == [("ls", 0, 0, 1.0), ("ba", 0, 2, 1.1)]
        assert ingest.next_due() == 1.9 and ingest.remaining == 1
        assert _released(ingest, 2.0) == [("ls", 0, 1, 1.9)]
        assert ingest.exhausted and ingest.peek(5.0) is None

    def test_adopt_puts_a_moved_source_into_its_jobs_fifo(self):
        """This worker owns source 0 of each job, a dead node owned the
        sources 1.  LS source 1, adopted, merges into the LS FIFO by trace
        time and leaves ahead of every BA entry."""
        timed = _trace(*self.TRACE)
        shard = _fifos([item for item in timed if item[1][0][3] == 0])
        ingest = IngestDriver(shard, realtime=False, slack=SLACK)
        assert _released(ingest, 0.0, chunk=1) == [("ls", 0, 0, 0.1)]
        ingest.adopt(timed, {_key(1, "ls"): 0})  # seq 0 was processed
        assert _released(ingest, 0.0) == [
            ("ls", 0, 1, 0.5), ("ls", 1, 1, 0.7), ("ls", 1, 2, 0.9),
            ("ba", 0, 0, 0.0), ("ba", 0, 1, 0.4), ("ba", 0, 2, 0.8)]
        assert ingest.exhausted

    def test_adopting_a_target_without_a_fifo_here_adds_one(self):
        timed = _trace(*self.TRACE)
        ingest = IngestDriver(_fifos([item for item in timed
                                       if item[1][0][1] == "ba"]),
                              realtime=False, slack=SLACK)
        ingest.adopt(timed, {_key(1, "ls"): -1})
        assert [(job, source) for job, source, *_ in _released(ingest, 0.0)] == (
            [("ls", 1)] * 3 + [("ba", 0), ("ba", 1)] * 2 + [("ba", 0)])

    def test_jobs_sharing_a_latency_target_share_a_fifo(self):
        """Two LS jobs with one target replay in trace order between them,
        ties at one trace time included."""
        slack = {"ls": 0.8, "ls2": 0.8, "ba": 7200.0}
        timed = _trace((1.0, 0, "ls2"), (1.0, 0, "ls"), (1.5, 0, "ba"),
                       (2.0, 0, "ls"), (2.0, 0, "ls2"))
        fifos = _fifos(timed, slack)
        assert sorted(fifos) == [0.8, 7200.0]
        ingest = IngestDriver(fifos, realtime=False, slack=slack)
        assert [(job, t) for job, _, _, t in _released(ingest, 0.0)] == [
            ("ls2", 1.0), ("ls", 1.0), ("ls", 2.0), ("ls2", 2.0), ("ba", 1.5)]


class TestFig08Trace:
    """The release order on a real sequenced fig08-mix trace, sharded the
    way the coordinator shards it before the fork."""

    HORIZON = 3.0

    def _replays(self, config: EngineConfig) -> list:
        """Per node: ``(released, shard)`` — what a flooded driver released
        in order, and the node's entries in trace order."""
        mix = TenantMix(ls_count=2, ba_count=2, ls_sources=2, ba_sources=2,
                        ba_msg_rate=20.0, tuples_per_msg=10)
        jobs = mix.build_jobs()
        engine = make_engine(config, jobs)
        mix.install_drivers(engine, jobs, self.HORIZON)
        engine.sim.run(until=self.HORIZON)  # the capture phase alone
        timed, _ = sequence_trace(engine._trace)
        node_of = {(address.job, address.stage, address.index): node
                   for address, node in place_operators(config, jobs).items()}
        slack = ingest_slack(config, jobs)
        shards = shard_by_owner(timed, lambda key: node_of[key[1:]],
                                config.nodes, slack)
        replays = []
        for node, fifos in shards.items():
            ingest = IngestDriver(fifos, realtime=False, slack=slack)
            released: list = []
            while ingest.pump(0.0, released.extend):
                pass
            shard = [entry for _, entry in timed if node_of[entry[0][1:]] == node]
            assert len(released) == len(shard) > 0
            replays.append((released, shard))
        return replays

    def test_cameo_llf_releases_in_deadline_order(self):
        config = EngineConfig(backend="mp", scheduler="cameo", policy="llf",
                              nodes=2, placement="round_robin", seed=5)
        slack = {"ls": 0.8, "ba": 7200.0}
        for released, shard in self._replays(config):
            deadlines = [entry[2] + slack[entry[0][1][:2]] for entry in released]
            assert deadlines == sorted(deadlines)
            assert {id(entry) for entry in released} == {id(entry) for entry in shard}
            assert released != shard  # LS entries moved ahead of BA ones
            assert _contiguous_per_source(released)

    @pytest.mark.parametrize("scheduler", ["fifo", "orleans"])
    def test_baselines_release_in_trace_order(self, scheduler):
        config = EngineConfig(backend="mp", scheduler=scheduler, nodes=2,
                              placement="round_robin", seed=5)
        for released, shard in self._replays(config):
            assert released == shard
