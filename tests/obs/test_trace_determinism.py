"""Tracing must be an observer, not a participant.

Turning ``record_trace`` on may not perturb the simulation by a single
bit: same seed => identical execution timelines with tracing on and off, for
every scheduler, fault-free and faulted.  The serialized trace itself is
also byte-stable across same-seed runs (no wall-clock, no dict-order
dependence), so traces can be diffed between code revisions."""

from __future__ import annotations

import json

import pytest

from repro.experiments.common import TenantMix, run_tenant_mix
from repro.obs.export import chrome_trace, jsonl_events
from repro.sim.faults import ChannelLoss, CrashWindow, DelaySpike, FaultSchedule

SCHEDULERS = ["cameo", "fifo", "orleans"]


def _timeline(scheduler: str, trace: bool, fault: bool):
    overrides = {"record_timeline": True, "record_trace": trace}
    if fault:
        overrides["fault_schedule"] = FaultSchedule(
            crashes=[CrashWindow(node=1, start=1.0, end=2.0)],
            losses=[ChannelLoss(rate=0.05, scope="remote")],
            delay_spikes=[DelaySpike(start=1.5, end=2.0, factor=2.0, extra=0.01)],
        )
    mix = TenantMix(ls_count=2, ba_count=2)
    engine = run_tenant_mix(
        scheduler, mix, duration=4.0, nodes=2, workers_per_node=2, seed=7,
        config_overrides=overrides,
    )
    return engine, engine.metrics.timeline


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_tracing_does_not_perturb_fault_free_runs(scheduler):
    _, base = _timeline(scheduler, trace=False, fault=False)
    engine, traced = _timeline(scheduler, trace=True, fault=False)
    assert len(base) > 100
    assert traced == base
    assert engine.tracer is not None and engine.tracer.spans


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_tracing_does_not_perturb_faulted_runs(scheduler):
    _, base = _timeline(scheduler, trace=False, fault=True)
    engine, traced = _timeline(scheduler, trace=True, fault=True)
    assert len(base) > 50
    assert traced == base
    assert engine.tracer.summary()["spans"] > 0


def test_trace_output_is_byte_stable():
    """Two same-seed traced runs serialize to identical bytes — both the
    Chrome trace and the JSONL event stream."""
    engine_a, _ = _timeline("cameo", trace=True, fault=True)
    engine_b, _ = _timeline("cameo", trace=True, fault=True)
    chrome_a = json.dumps(chrome_trace(engine_a.tracer), sort_keys=True)
    chrome_b = json.dumps(chrome_trace(engine_b.tracer), sort_keys=True)
    assert chrome_a == chrome_b
    assert jsonl_events(engine_a.tracer) == jsonl_events(engine_b.tracer)


def test_sampler_cadence_scales_with_interval():
    """Halving the sample interval must not change the simulation either,
    only the number of samples."""
    mix = TenantMix(ls_count=1, ba_count=1)
    logs = []
    counts = []
    for interval in (0.1, 0.05):
        engine = run_tenant_mix(
            "cameo", mix, duration=3.0, nodes=2, workers_per_node=2, seed=5,
            config_overrides={
                "record_timeline": True,
                "record_trace": True,
                "trace_sample_interval": interval,
            },
        )
        logs.append(engine.metrics.timeline)
        counts.append(len(engine.tracer.samples))
    assert logs[0] == logs[1]
    assert counts[1] > counts[0] * 1.5
