"""Unit tests for messages."""

import math

from repro.dataflow.events import EventBatch
from repro.dataflow.messages import Message


class TestMessage:
    def test_unique_ids(self):
        """The engine's transport gives every message it mints its own id."""
        from repro.experiments.common import TenantMix, run_tenant_mix

        engine = run_tenant_mix(
            "cameo", TenantMix(ls_count=1, ba_count=1), duration=1.0,
            drain=0.5, seed=1, config_overrides={"record_timeline": True},
        )
        ids = [entry[4] for entry in engine.metrics.timeline]
        assert ids and len(set(ids)) == len(ids)
        assert min(ids) >= 0

    def test_direct_construction_has_no_id(self):
        assert Message(target="x").msg_id == -1
        assert Message(target="x", msg_id=5).msg_id == 5

    def test_tuple_count(self):
        assert Message(target="x").tuple_count == 0
        assert Message(target="x", batch=EventBatch([1.0, 2.0])).tuple_count == 2

    def test_enqueue_time_starts_nan(self):
        assert math.isnan(Message(target="x").enqueue_time)

    def test_repr_smoke(self):
        assert "Message(" in repr(Message(target="x"))


class TestPickleRoundTrip:
    """Messages (and everything they carry) must survive IPC pickling.

    ``__slots__`` classes without explicit state methods only pickle under
    protocol >= 2 — a latent bug for any IPC or snapshot feature.  The
    process backend ships messages over pipes, so every protocol must
    round-trip bit-exactly.
    """

    def _sample_message(self):
        import numpy as np

        from repro.core.context import PriorityContext
        from repro.dataflow.operators import OpAddress

        batch = EventBatch(
            np.array([0.5, 1.0, 1.5]),
            values=np.array([1.0, 2.0, 3.0]),
            keys=np.array([0, 1, 2]),
            arrival_time=2.25,
            source_id=3,
            times_sorted=True,
        )
        pc = PriorityContext(pri_local=1.5, pri_global=2.5, deadline=2.8)
        msg = Message(
            target=OpAddress("job", "agg0", 1),
            batch=batch,
            p=1.5,
            t=2.25,
            deps_arrival=2.25,
            sender=OpAddress("job", "source", 0),
            pc=pc,
            channel_index=4,
            msg_id=7,
            enqueue_time=2.5,
        )
        msg.seq = 11
        return msg

    def test_message_round_trip_every_protocol(self):
        import pickle

        msg = self._sample_message()
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(msg, protocol))
            assert clone.msg_id == msg.msg_id  # same message, not a new id
            assert clone.target == msg.target
            assert clone.sender == msg.sender
            assert clone.seq == 11
            assert clone.channel_index == 4
            assert (clone.p, clone.t, clone.deps_arrival) == (msg.p, msg.t, msg.deps_arrival)
            assert clone.enqueue_time == msg.enqueue_time
            assert clone.pc == msg.pc

    def test_batch_round_trip_every_protocol(self):
        import pickle

        import numpy as np

        batch = self._sample_message().batch
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(batch, protocol))
            np.testing.assert_array_equal(clone.logical_times, batch.logical_times)
            np.testing.assert_array_equal(clone.values, batch.values)
            np.testing.assert_array_equal(clone.keys, batch.keys)
            assert clone.arrival_time == batch.arrival_time
            assert clone.source_id == batch.source_id
            assert clone.times_sorted is True

    def test_contexts_round_trip(self):
        import pickle

        from repro.core.context import PriorityContext, ReplyContext

        samples = [
            PriorityContext(pri_local=2.0, pri_global=3.0),
            ReplyContext(c_m=0.1, c_path=0.2, queueing_delay=0.3, mailbox_size=4),
        ]
        for obj in samples:
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(obj, protocol)) == obj

    def test_nan_enqueue_time_survives(self):
        import pickle

        clone = pickle.loads(pickle.dumps(Message(target="x")))
        assert math.isnan(clone.enqueue_time)
