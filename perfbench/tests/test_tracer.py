"""Span bookkeeping: self times telescope, bypassed layers read zero."""

from __future__ import annotations

import time

import pytest

from perfbench import layers
from perfbench.measure import run_rep
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS


def _self_times(spans):
    """Self time per span from raw ``(id, fn, start, end, parent)`` records."""
    own = {span_id: end - start for span_id, _, start, end, _ in spans}
    for _, _, start, end, parent in spans:
        if parent:
            own[parent] -= end - start
    return own


def test_self_times_telescope_on_nested_calls():
    tracer = Tracer()

    def leaf():
        time.sleep(0.001)

    leaf = tracer.wrap("leaf", "leaf", leaf)

    def middle():
        leaf()
        leaf()

    middle = tracer.wrap("middle", "middle", middle)

    def root():
        middle()
        leaf()

    root = tracer.wrap("root", "root", root)
    tracer.start()
    root()
    tracer.stop()
    table = tracer.aggregates()
    assert table[("leaf", "leaf")][0] == 3
    assert sum(row[1] for row in table.values()) == table[("root", "root")][2]
    own = _self_times(tracer.spans)
    assert sum(own.values()) == table[("root", "root")][2]
    assert all(value >= 0 for value in own.values())


@pytest.fixture(scope="module")
def traced_sim():
    """A short traced rep of the hot workload, and the same rep untraced."""
    workload = WORKLOADS["sim_tenants_hot"]
    plain = run_rep(workload, 4000, 0.4)
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = run_rep(workload, 4000, 0.4, tracer=tracer)
    finally:
        tracer.uninstall()
    return plain, traced, tracer


def test_sim_spans_telescope_to_the_root_within_one_percent(traced_sim):
    _, _, tracer = traced_sim
    roots = [s for s in tracer.spans if tracer.names[s[1]][1] == "StreamEngine.run"]
    assert len(roots) == 1
    root_id, _, start, end, _ = roots[0]
    under = {root_id}
    children = {}
    for span_id, _, _, _, parent in tracer.spans:
        children.setdefault(parent, []).append(span_id)
    pending = [root_id]
    while pending:
        for child in children.get(pending.pop(), []):
            under.add(child)
            pending.append(child)
    own = _self_times(tracer.spans)
    assert abs(sum(own[i] for i in under) - (end - start)) <= 0.01 * (end - start)
    merged = tracer.aggregates()
    assert layers.attributed_share(merged) >= 0.9


def test_tracing_does_not_change_a_sim_run(traced_sim):
    plain, traced, _ = traced_sim
    assert plain.failed == traced.failed == 0
    assert plain.output_digest == traced.output_digest
    assert plain.messages == traced.messages


def test_uninstall_restores_the_program(traced_sim):
    from repro.sim.kernel import Simulator

    assert not hasattr(Simulator.run, "__wrapped__")


def test_bypassed_layers_read_zero(quick_suite):
    results, _ = quick_suite

    def layer(workload, prefix, run="traced"):
        return {name: value["value"]
                for name, value in results[workload][run]["metrics"].items()
                if name.startswith(prefix)}

    assert layer("sim_tenants_hot", "core.converter.")["core.converter.builds_per_msg"] > 0
    assert not any(layer("sim_ipq_bigbatch", "core.converter.").values())
    assert not any(layer("sim_tenants_hot", "runtime.recovery.").values())
    assert all(layer("sim_faults_ckpt", "runtime.recovery.").values())
    for workload in WORKLOADS:
        mp_layers = layer(workload, "runtime.mp.")
        if WORKLOADS[workload].backend == "sim":
            assert set(mp_layers.values()) - {mp_layers[
                "runtime.mp.frames.codec_us_per_frame"]} == {0.0}, workload
    flood = results["mp_flood_2w"]["traced"]
    assert flood["metrics"]["runtime.mp.transport.frames_per_msg"]["value"] > 0
    lone = flood["single_worker_layers"]
    assert not any(value for name, value in lone.items()
                   if name.startswith(("runtime.mp.frames.", "runtime.mp.transport.frames")))
    assert flood["metrics"]["bench.trace_overhead_ratio"]["value"] > 1.0
