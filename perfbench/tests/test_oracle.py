"""The oracle accepts a correct run and flags a wrong or missing output."""

from __future__ import annotations

import copy

import pytest

from perfbench import inputs, oracle
from perfbench.measure import run_rep
from perfbench.workloads import WORKLOADS


@pytest.fixture(scope="module")
def small_run():
    """ipq1-4 for a few simulated seconds: every window kind the oracle knows."""
    from repro.runtime.engine import make_engine

    workload = WORKLOADS["sim_ipq_bigbatch"]
    jobs = workload.make_jobs()
    traces = inputs.build_traces(workload.source_specs(jobs), 7, 6.0)
    engine = make_engine(workload.engine_config(7, 6.0), jobs)
    inputs.install(engine, traces)
    engine.run(until=6.0 + workload.drain)
    return jobs, traces, engine.metrics


def test_reference_matches_every_sink_output(small_run):
    jobs, traces, metrics = small_run
    for job in jobs:
        expected = oracle.reference(job, traces)
        verdict = oracle.check(expected, metrics.job(job.name), exact_anchor=True)
        assert verdict.expected >= 3, job.name
        assert verdict.failed == 0, (job.name, verdict)
        assert len(verdict.matched) == verdict.expected


def test_corrupted_value_dropped_and_duplicated_outputs_are_flagged(small_run):
    jobs, traces, metrics = small_run
    job = jobs[0]
    expected = oracle.reference(job, traces)

    def tampered(change):
        record = copy.deepcopy(metrics.job(job.name))
        change(record)
        return oracle.check(expected, record, exact_anchor=True)

    def corrupt(record):
        record.output_values[1] += 1.0

    def drop(record):
        for column in (record.output_values, record.output_tuples,
                       record.output_times, record.latencies):
            del column[1]

    def duplicate(record):
        for column in (record.output_values, record.output_tuples,
                       record.output_times, record.latencies):
            column.insert(1, column[1])

    def shift_anchor(record):
        record.latencies[1] += 0.001

    wrong, missing = tampered(corrupt), tampered(drop)
    assert (wrong.wrong, wrong.failed) == (1, 1)
    # a dropped output costs one miss, not a shifted tail
    assert (missing.missing, missing.failed) == (1, 1)
    assert tampered(duplicate).spurious == 1
    assert tampered(shift_anchor).anchor_mismatch == 1


def test_same_seed_same_inputs_other_seed_other_inputs():
    workload = WORKLOADS["sim_tenants_hot"]
    specs = workload.source_specs(workload.make_jobs())
    digest = inputs.trace_digest(inputs.build_traces(specs, 4, 3.0))
    assert digest == inputs.trace_digest(inputs.build_traces(specs, 4, 3.0))
    assert digest != inputs.trace_digest(inputs.build_traces(specs, 5, 3.0))


def test_failed_rep_counts_every_output_on_forced_stop():
    """A run that had to be stopped fails whole: no output is trusted."""
    rep = run_rep(WORKLOADS["mp_flood_2w"], 4, 1.0, mp_wall_timeout=0.05)
    assert rep.facts["info"]["forced_stop"]
    assert rep.failed == rep.expected > 0
