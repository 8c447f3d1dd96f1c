"""Null-collaborator residue guard, both backends.

The observability plane's design rule: off means *absent*.  With
``record_trace=False`` every :class:`NodeRuntime` and its transport hold
``None`` in their recorder slots and no sampler exists, so the hot path
gains only dead ``is None`` branches; switched on, one recorder object is
shared by every layer of a node.  An
:class:`~repro.runtime.mp.worker.MpWorker` builds in-process without
forking, so the mp half needs no worker processes.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import TenantMix
from repro.runtime.config import EngineConfig
from repro.runtime.engine import StreamEngine
from repro.runtime.mp.reliable import MpReliableDelivery
from repro.runtime.mp.worker import MpWorker


def _build(backend: str, **overrides):
    """(engine-or-worker, its nodes) for a 2-node, 1 LS + 1 BA mix."""
    config = EngineConfig(backend=backend, nodes=2, workers_per_node=1,
                          **overrides)
    jobs = TenantMix(ls_count=1, ba_count=1, ls_sources=2, ba_sources=2,
                     tuples_per_msg=200).build_jobs()
    if backend == "mp":
        worker = MpWorker(0, config, jobs)
        return worker, [worker]
    engine = StreamEngine(config, jobs)
    return engine, engine.nodes


@pytest.mark.parametrize("backend", ("sim", "mp"))
def test_untraced_runtime_holds_no_recorder_and_no_sampler(backend):
    root, nodes = _build(backend)
    for node in nodes:
        assert node._tracer is None
        assert node._transport._tracer is None
    if backend == "sim":
        assert root.tracer is None
        assert root._sampler is None
    else:
        # the channel protocol, not the hook slot (that holds the transport)
        assert isinstance(root._delivery, MpReliableDelivery)
        assert root._delivery._tracer is None
        assert root._tm_interval is None


@pytest.mark.parametrize("backend", ("sim", "mp"))
def test_traced_runtime_shares_one_recorder_and_samples(backend):
    root, nodes = _build(backend, record_trace=True,
                         trace_sample_interval=0.025)
    recorder = nodes[0]._tracer
    assert recorder is not None
    for node in nodes:
        assert node._tracer is recorder
        assert node._transport._tracer is recorder
    if backend == "sim":
        assert root.tracer is recorder
        assert root._sampler is not None
    else:
        assert root._delivery._tracer is recorder
        assert root._tm_interval == 0.025  # the sampler follows record_trace
