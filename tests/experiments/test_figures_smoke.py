"""Fast, scaled-down smoke runs of the figure experiments.

Full-scale reproductions (with the paper's shape assertions) live in
``benchmarks/``; these tests only check that every experiment runs end to
end at toy scale and produces structurally sound results.
"""

import math

from repro.experiments import (
    run_ext_checkpoint,
    run_ext_faults,
    run_ext_partition,
    run_fig01,
    run_fig02,
    run_fig04,
    run_fig10,
    run_fig12,
    run_fig13,
    run_fig14,
    run_fig15,
    run_fig16,
)


def rows_are_finite(result, numeric_from=1):
    for row in result.rows:
        for cell in row[numeric_from:]:
            if isinstance(cell, float):
                assert not math.isnan(cell), f"NaN in {result.name}: {row}"


def test_fig01_smoke():
    result = run_fig01(duration=8.0, ba_msg_rate=30.0)
    assert len(result.rows) == 3
    rows_are_finite(result)
    assert result.extras["slot-based"]["utilization"] < result.extras["cameo"]["utilization"]


def test_fig02_smoke():
    result = run_fig02(stream_count=50, heatmap_sources=5, heatmap_duration=30)
    assert result.extras["top10_share"] > 0.1
    assert result.extras["heatmap"].shape == (5, 30)


def test_fig04_smoke():
    result = run_fig04(duration=12.0)
    assert len(result.rows) == 4
    rows_are_finite(result)


def test_fig10_smoke():
    result = run_fig10(duration=8.0, type2_total_rate=50.0)
    assert len(result.rows) == 3
    for row in result.rows:
        assert 0.0 <= row[1] <= 1.0
        assert 0.0 <= row[2] <= 1.0


def test_fig12_smoke():
    result = run_fig12(message_count=2000, operator_count=50)
    assert result.extras["fifo_ns"] > 0
    assert result.extras["full_ns"] > result.extras["fifo_ns"]


def test_fig13_smoke():
    result = run_fig13(batch_sizes=(1000, 20000), ba_tuple_rate=20_000.0,
                       duration=10.0)
    assert len(result.rows) == 2
    rows_are_finite(result)


def test_fig14_smoke():
    result = run_fig14(quanta=(0.001, 0.1), duration=8.0, ls_jobs=2,
                       ls_rate=10.0, ba_rate=30.0)
    assert len(result.rows) == 4
    rows_are_finite(result)


def test_fig15_smoke():
    result = run_fig15(duration=8.0, ba_rate=20.0)
    assert len(result.rows) == 4
    rows_are_finite(result)


def test_fig16_smoke():
    result = run_fig16(sigmas=(0.0, 0.1), duration=8.0, ba_rate=20.0)
    assert len(result.rows) == 2
    rows_are_finite(result)


def test_ext_starvation_smoke():
    from repro.experiments import run_ext_starvation

    result = run_ext_starvation(aging_values=(0.0, 0.2), duration=10.0)
    assert len(result.rows) == 2
    assert result.extras[0.2]["ba_max_wait"] <= result.extras[0.0]["ba_max_wait"]


def test_ext_backpressure_smoke():
    from repro.experiments import run_ext_backpressure

    result = run_ext_backpressure(capacities=(None, 16), burst_rate=400.0,
                                  duration=6.0)
    assert result.extras[16]["max_mailbox"] <= 16
    assert result.extras[None]["max_mailbox"] > 16


def test_ext_elasticity_smoke():
    from repro.experiments import run_ext_elasticity

    result = run_ext_elasticity(duration=10.0)
    assert len(result.rows) == 3
    assert result.extras["fifo reactive"]["worker_seconds"] >= (
        result.extras["fifo static"]["worker_seconds"]
    )


def test_ext_migration_smoke():
    from repro.experiments import run_ext_migration

    result = run_ext_migration(duration=12.0)
    assert len(result.rows) == 4
    # static variants never migrate; migrate variants move the whole hot job
    assert result.extras["fifo static"]["migrations"] == 0
    assert result.extras["fifo migrate"]["migrations"] > 0
    # migration must not hurt fifo's post-move tail
    assert result.extras["fifo migrate"]["post_p99"] <= (
        result.extras["fifo static"]["post_p99"]
    )


def test_ext_faults_smoke():
    result = run_ext_faults(duration=12.0, drain=4.0)
    assert len(result.rows) == 5
    for label, extra in result.extras.items():
        assert 0.0 <= extra["success"] <= 1.0
        report = extra["fault_report"]
        if label == "cameo (no faults)":
            assert report["crashes"] == 0
            assert extra["timeline"] == []
        else:
            # both crash windows open inside a 12s run (t=8 and t=10)
            assert report["crashes"] == 2
            assert report["failure_detections"] == 2
            assert any(kind == "failover" for _, kind, _ in extra["timeline"])
    # only the shedding variant sheds
    assert result.extras["cameo + shedding"]["fault_report"]["messages_shed"] > 0
    assert result.extras["cameo"]["fault_report"]["messages_shed"] == 0


def test_ext_checkpoint_smoke():
    result = run_ext_checkpoint(duration=12.0, drain=4.0)
    assert [row[0] for row in result.rows] == [
        "checkpoint", "replay only", "legacy (state immortal)", "no faults"]
    rows_are_finite(result)
    extras = result.extras
    for label, extra in extras.items():
        assert 0.0 <= extra["success"] <= 1.0
        # the single crash window (t=8) opens inside a 12s run
        assert extra["fault_report"]["crashes"] == (label != "no faults")
    assert extras["checkpoint"]["fault_report"]["checkpoints_taken"] > 0
    assert extras["replay only"]["fault_report"]["checkpoints_taken"] == 0
    # truncation at the checkpoint watermark vs. retaining the full history
    assert extras["checkpoint"]["unacked_peak"] < extras["replay only"]["unacked_peak"]
    assert extras["no faults"]["timeline"] == []


def test_ext_partition_smoke():
    result = run_ext_partition(duration=10.0, drain=3.0)
    assert len(result.rows) == 7
    rows_are_finite(result)
    extras = result.extras
    for label, extra in extras.items():
        assert 0.0 <= extra["success"] <= 1.0
        # only the contended-uplink variants install a bandwidth model
        assert (extra["bandwidth"] is not None) == label.endswith("link)")
    quorum = extras["cameo + quorum"]
    assert quorum["fault_report"]["partitions"]["double_spawns"] == 0
    assert quorum["invariant"]["fence_windows"] == 2
    assert extras["cameo + naive"]["invariant"] is None
    assert extras["cameo + naive"]["fault_report"]["partitions"]["double_spawns"] > 0
    clean = extras["cameo (no partition)"]
    assert clean["invariant"] is None and clean["timeline"] == []
