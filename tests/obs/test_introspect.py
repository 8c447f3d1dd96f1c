"""SchedulerSampler: cadence, sample invariants, per-scheduler fields."""

from __future__ import annotations

import pytest

from repro.dataflow.messages import reset_message_ids
from repro.experiments.common import TenantMix, run_tenant_mix
from repro.obs.introspect import SchedulerSampler


def _traced(scheduler: str, interval: float = 0.05, duration: float = 4.0):
    reset_message_ids()
    # loaded on purpose: one worker per node with a heavy BA push, so the
    # periodic samples actually catch backlog and busy workers
    mix = TenantMix(ls_count=2, ba_count=4, ba_msg_rate=40.0)
    return run_tenant_mix(
        scheduler, mix, duration=duration, nodes=2, workers_per_node=1,
        seed=13,
        config_overrides={"record_trace": True,
                          "trace_sample_interval": interval},
    )


@pytest.fixture(scope="module")
def cameo_engine():
    return _traced("cameo")


def test_sample_cadence(cameo_engine):
    """One sample per node per interval, for the whole run (incl. drain)."""
    samples = cameo_engine.tracer.samples
    horizon = cameo_engine.sim.now
    interval = cameo_engine.config.trace_sample_interval
    nodes = len(cameo_engine.nodes)
    expected = int(horizon / interval) * nodes
    assert abs(len(samples) - expected) <= 2 * nodes
    # strictly increasing tick times, node-major within a tick
    per_node: dict[int, list[float]] = {}
    for sample in samples:
        per_node.setdefault(sample.node_id, []).append(sample.time)
    assert set(per_node) == {n.node_id for n in cameo_engine.nodes}
    for times in per_node.values():
        assert times == sorted(times)


def test_sample_invariants(cameo_engine):
    for sample in cameo_engine.tracer.samples:
        assert sample.depth >= 0
        assert 0 <= sample.busy_workers <= sample.active_workers
        assert 0.0 <= sample.quantum_utilization <= 1.0
        assert sample.pushes >= sample.pops >= 0
    # a loaded run must show nontrivial activity at some point
    assert any(s.depth > 0 or s.busy_workers > 0
               for s in cameo_engine.tracer.samples)


def test_cameo_samples_expose_head_priority(cameo_engine):
    heads = [s.head_priority for s in cameo_engine.tracer.samples
             if s.head_priority == s.head_priority]
    assert heads, "priority queue should expose a head priority when loaded"
    counters = cameo_engine.tracer.samples[-1]
    assert counters.pushes > 0 and counters.pops > 0


def test_fifo_samples_have_no_head_priority():
    engine = _traced("fifo", duration=2.0)
    for sample in engine.tracer.samples:
        assert sample.head_priority != sample.head_priority  # NaN
        assert sample.as_dict()["head_priority"] is None


def test_sampler_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        SchedulerSampler(None, [], [], None, 0.0)


def test_utilization_tracks_busy_time():
    """Total sampled busy deltas reconstruct each worker's busy time."""
    engine = _traced("cameo", interval=0.1, duration=3.0)
    interval = engine.config.trace_sample_interval
    recovered: dict[int, float] = {}
    for sample in engine.tracer.samples:
        recovered[sample.node_id] = recovered.get(sample.node_id, 0.0) + \
            sample.quantum_utilization * sample.active_workers * interval
    for node in engine.nodes:
        actual = sum(w.busy_time for w in node.workers)
        # clamping and the unsampled final partial interval only under-count,
        # so the reconstruction is a positive lower bound on real busy time
        assert 0.0 < recovered[node.node_id] <= actual + 1e-9
