"""Tests for the shared experiment harness."""

from repro.dataflow.messages import reset_message_ids
from repro.experiments.common import (
    ExperimentResult,
    TenantMix,
    build_tenant_mix,
    group_row,
    run_tenant_mix,
)


class TestTenantMix:
    def test_build_jobs_counts_and_groups(self):
        mix = TenantMix(ls_count=2, ba_count=3)
        jobs = mix.build_jobs()
        assert len(jobs) == 5
        assert sum(j.group == "LS" for j in jobs) == 2
        assert sum(j.group == "BA" for j in jobs) == 3

    def test_latency_targets(self):
        mix = TenantMix(ls_latency=0.5, ba_latency=100.0)
        jobs = mix.build_jobs()
        assert {j.latency_constraint for j in jobs} == {0.5, 100.0}

    def test_ba_cost_scale_reaches_ba_stage_costs(self):
        plain = TenantMix(ls_count=1, ba_count=1).build_jobs()
        coarse = TenantMix(ls_count=1, ba_count=1, ba_cost_scale=20.0).build_jobs()
        for base, scaled in zip(plain, coarse):
            factor = 20.0 if base.group == "BA" else 1.0
            for name in base.graph.stage_names:
                cost, nominal = scaled.graph.stage(name).cost, base.graph.stage(name).cost
                assert cost.base == nominal.base * factor
                assert cost.per_tuple == nominal.per_tuple * factor


class TestRunTenantMix:
    def test_produces_outputs_for_both_groups(self):
        mix = TenantMix(ls_count=1, ba_count=1, ls_sources=2, ba_sources=2,
                        ba_msg_rate=5.0)
        engine = run_tenant_mix("cameo", mix, duration=8.0, seed=1)
        assert engine.metrics.group_summary("LS").count > 0
        assert engine.metrics.group_summary("BA").count > 0

    def test_group_row_fields(self):
        mix = TenantMix(ls_count=1, ba_count=1, ls_sources=2, ba_sources=2,
                        ba_msg_rate=5.0)
        engine = run_tenant_mix("fifo", mix, duration=8.0, seed=1)
        row = group_row(engine, "LS", 8.0)
        assert set(row) == {"p50", "p99", "mean", "std", "count", "success",
                            "throughput"}
        assert row["count"] > 0
        assert row["throughput"] > 0

    def test_config_overrides_applied(self):
        mix = TenantMix(ls_count=1, ba_count=0, ls_sources=2)
        engine = run_tenant_mix("cameo", mix, duration=5.0, seed=1,
                                config_overrides={"quantum": 0.01})
        assert engine.config.quantum == 0.01

    def test_build_then_run_equals_run_tenant_mix(self):
        mix = TenantMix(ls_count=1, ba_count=1, ls_sources=2, ba_sources=2,
                        ba_msg_rate=5.0)
        kwargs = dict(duration=4.0, nodes=2, seed=3,
                      config_overrides={"record_timeline": True})
        reset_message_ids()
        ran = run_tenant_mix("cameo", mix, drain=1.0, **kwargs)
        reset_message_ids()
        built = build_tenant_mix("cameo", mix, **kwargs)
        assert built.sim.now == 0.0 and not built.metrics.timeline
        built.run(until=5.0)
        assert built.metrics.timeline == ran.metrics.timeline
        assert len(ran.metrics.timeline) > 0


class TestExperimentResult:
    def test_render_contains_rows_and_notes(self):
        result = ExperimentResult("figX", "Title", ["a", "b"],
                                  rows=[[1, 2.0]], notes="note")
        text = result.render()
        assert "[figX] Title" in text
        assert "note" in text
        assert "2.00" in text
