"""Figure 12 — Cameo's scheduling overhead (wall-clock microbenchmark)."""

from conftest import run_once

from repro.experiments import run_fig12


def test_fig12_overhead(benchmark, archive):
    result = run_once(benchmark, lambda: run_fig12(message_count=30_000))
    archive(result)
    # every figure is a median over interleaved reps (the IQR is archived)
    fifo_ns = result.extras["fifo_ns"]
    sched_ns = result.extras["sched_ns"]
    full_ns = result.extras["full_ns"]
    # priority scheduling costs more than FIFO, priority generation more still
    assert fifo_ns < sched_ns < full_ns
    # the two-level queue alone stays within ~4x of plain FIFO
    assert sched_ns < 4.0 * fifo_ns
    # full per-message scheduling work stays in the microsecond range
    assert full_ns < 50_000
    # overhead relative to execution cost falls monotonically with batch size
    fractions = [result.extras[("overhead_fraction", b)]
                 for b in (1, 1000, 5000, 20000, 80000)]
    assert all(a > b for a, b in zip(fractions, fractions[1:]))
    # and is a small fraction of execution even at batch size 1 (paper: 6.4%)
    assert fractions[0] < 0.15
