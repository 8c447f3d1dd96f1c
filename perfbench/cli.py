"""Command line of the benchmark.

One run of one workload (what ``BENCHMARK.json``'s command is driven
with)::

    python3 -m perfbench --workload W --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--trace`` it runs the suite: every workload (or ``--workload``)
in its own child process, untraced and with ``--traced`` also traced, and
writes all results with a manifest to ``--out``.  ``--repeat-check`` runs
two suites back to back and compares them against the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys

from perfbench import ROOT, require_program

#: scratch space of a run, inside the checkout (git-ignored)
WORK_DIR = ROOT / ".perfbench_out"
QUICK_SECONDS = 2.0
#: set-up is the median of at least this many set-ups per run
SETUP_SAMPLES = 5
#: share of a rep's size the discarded warm-up rep runs
WARMUP_SHARE = 0.25


def _manifest(workload, seed: int, seconds: float, reps: list, quick: bool) -> dict:
    """Everything needed to regenerate a number from the file reporting it."""
    import dataclasses

    import numpy

    def git(*args: str) -> str:
        try:
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return ""  # the driver's checkout is not a git repository

    config = dataclasses.asdict(workload.engine_config(seed, seconds))
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": bool(git("status", "--porcelain")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "seconds": seconds,
        "comparable": not quick,
        "workload": workload.name,
        "engine_config": json.loads(json.dumps(config, default=repr)),
        "trace_digest": [rep.trace_digest for rep in reps],
        "reps": [rep.raw() for rep in reps],
    }


def _extras(workload, reps: list) -> dict:
    """User-visible numbers that do not exist on every workload."""
    import numpy as np

    from perfbench.measure import group_latencies

    ls = group_latencies(reps, "LS")
    expected_ls = sum(rep.expected_by_group["LS"] for rep in reps)
    late_ls = sum(len(rep.late.get("LS", [])) for rep in reps)
    on_sim = workload.backend == "sim"
    rates = [
        rep.tuples_by_group["BA"] / (rep.horizon if on_sim else rep.run_wall_s)
        for rep in reps
    ]
    recovery = 0.0
    if workload.crash is not None:
        # last LS deadline violation after the crash instant
        recovery = max(
            (emitted - workload.crash[1] * rep.horizon
             for rep in reps for emitted in rep.late.get("LS", [])
             if emitted >= workload.crash[1] * rep.horizon),
            default=0.0)
    return {
        "e2e.ls_p90_ms": float(np.percentile(ls, 90)) * 1e3 if ls.size else 0.0,
        # a missing output is a miss: on-time outputs over *expected* ones
        "e2e.ls_success": (ls.size - late_ls) / expected_ls if expected_ls else 0.0,
        "e2e.ba_tuples_per_s": statistics.mean(rates),
        "e2e.recovery_s": recovery,
        "e2e.failed_share": sum(rep.failed for rep in reps)
        / max(1, sum(rep.expected for rep in reps)),
    }


def run_untraced(workload, seed: int, seconds: float) -> dict:
    """``--trace 0``: one warm-up, the timed reps, the end-to-end metrics."""
    from perfbench.measure import end_to_end, quartiles, rep_seed, run_rep

    run_rep(workload, rep_seed(seed, 999), seconds * WARMUP_SHARE)
    reps = [run_rep(workload, rep_seed(seed, i), seconds) for i in range(workload.reps)]
    setups = [rep.setup_s for rep in reps]
    for i in range(len(reps), SETUP_SAMPLES):
        setups.append(
            run_rep(workload, rep_seed(seed, i), seconds, setup_only=True).setup_s)
    metrics = end_to_end(reps, setups)
    walls = [rep.wall_us_per_msg for rep in reps]
    return {
        "metrics": metrics,
        "extras": _extras(workload, reps),
        "attempted": sum(rep.expected for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "spread": {"wall_us_per_msg": dict(zip(("q1", "median", "q3"),
                                               quartiles(walls)))},
        "reps": reps,
    }


def run_traced(workload, seed: int, seconds: float, quick: bool) -> dict:
    """``--trace 1``: the same rep without and with the layer wrappers,
    the workload's special reps, the isolated layer costs."""
    from perfbench import isolated, layers
    from perfbench.measure import rep_seed, run_rep
    from perfbench.tracer import Tracer

    run_rep(workload, rep_seed(seed, 999), seconds * WARMUP_SHARE)
    first = rep_seed(seed, 0)
    plain = run_rep(workload, first, seconds)
    metrics = {}
    if workload.probe_record_trace:
        recorded = run_rep(workload, first, seconds, record_trace=True)
        metrics["obs.record_trace_overhead_ratio"] = (
            recorded.wall_us_per_msg / plain.wall_us_per_msg)
    if workload.probe_single_worker:
        single = run_rep(workload, first, seconds, nodes=1)
        metrics["runtime.mp.cross_process_cost_ratio"] = (
            plain.cpu_us_per_msg / single.cpu_us_per_msg)

    dump_dir = WORK_DIR / f"trace-{workload.name}-{seed}"
    dump_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    layers.install(tracer, dump_dir)
    try:
        traced = run_rep(workload, first, seconds, tracer=tracer)
        merged, per_process = layers.collect(tracer, dump_dir)
        spans = list(tracer.spans)
        single_layers = None
        if workload.probe_single_worker:
            lone = run_rep(workload, first, seconds, tracer=tracer, nodes=1)
            single_layers = layers.layer_metrics(layers.collect(tracer, dump_dir)[0], lone)
    finally:
        tracer.uninstall()
        shutil.rmtree(dump_dir, ignore_errors=True)

    metrics.update(layers.layer_metrics(merged, traced))
    metrics["bench.trace_overhead_ratio"] = traced.wall_us_per_msg / plain.wall_us_per_msg
    metrics["bench.attributed_share"] = layers.attributed_share(merged)
    if workload.backend == "mp":
        metrics["runtime.mp.coordinator.cpu_s"] = plain.facts["coordinator_cpu_s"]
        metrics.update(layers.paced_extras([plain]))
    metrics.update(isolated.run_all(quick))
    metrics.update(layers.repo_metrics())
    metrics.update(_extras(workload, [plain]))
    reps = [plain, traced]
    failed = sum(rep.failed for rep in reps)
    if workload.backend == "sim" and traced.output_digest != plain.output_digest:
        failed = sum(rep.expected for rep in reps)  # observing changed the run
    return {
        "metrics": metrics,
        "attempted": sum(rep.expected for rep in reps),
        "failed": failed,
        "layers": {f"{layer}:{label}": row for (layer, label), row in merged.items()},
        "processes": sorted(per_process),
        "single_worker_layers": single_layers,
        "spans": {"names": tracer.names, "records": spans},
        "reps": reps,
    }


def run_single(args) -> int:
    """One workload in this process: the contract's run."""
    from perfbench.catalog import END_TO_END, PER_LAYER, UNITS
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.trace:
        result = run_traced(workload, args.seed, args.seconds, args.quick)
        names = [name for name, *_ in PER_LAYER]
    else:
        result = run_untraced(workload, args.seed, args.seconds)
        names = [name for name, *_ in END_TO_END]
    metrics = {name: result["metrics"].get(name, 0.0) for name in names}
    print(f"# {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {workload.loop}")
    for name, value in {**metrics, **result.get("extras", {})}.items():
        print(f"{name:<46} {value:>16.6g} {UNITS[name]}")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }
    if args.out:
        reps = result.pop("reps")
        detail = dict(result, **line, manifest=_manifest(
            workload, args.seed, args.seconds, reps, args.quick))
        pathlib.Path(args.out).write_text(json.dumps(detail, default=repr) + "\n")
    print(json.dumps(line))
    return 0


def run_suite(args, label: str = "suite") -> dict:
    """Every selected workload in its own child process.

    Returns ``workload -> {"untraced": detail, "traced": detail}``."""
    from perfbench.workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    WORK_DIR.mkdir(exist_ok=True)
    results: dict = {}
    for name in names:
        for trace in (0, 1) if args.traced else (0,):
            out = WORK_DIR / f"{label}-{name}-{trace}.json"
            command = [sys.executable, "-m", "perfbench", "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--out", str(out)]
            if args.quick:
                command.append("--quick")
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"perfbench: {name} --trace {trace} failed")
            print(done.stdout.rsplit("\n", 2)[0])  # the table, not the JSON line
            results.setdefault(name, {})["traced" if trace else "untraced"] = (
                json.loads(out.read_text()))
            out.unlink()
    return results


def repeat_check(args) -> int:
    """Two full sets back to back: every end-to-end metric must agree
    within its bound, every simulated metric and digest exactly."""
    from perfbench.catalog import END_TO_END
    from perfbench.workloads import WORKLOADS

    first, second = run_suite(args, "set1"), run_suite(args, "set2")
    worst = 0
    print(f"{'workload':<18} {'metric':<18} {'set 1':>12} {'set 2':>12} "
          f"{'gap':>8} {'bound':>6}")
    for name, runs in first.items():
        one, two = runs["untraced"], second[name]["untraced"]
        exact = {"ls_p50_ms"} if WORKLOADS[name].backend == "sim" else set()
        for metric, _, better, bound in END_TO_END:
            a = one["metrics"][metric]["value"]
            b = two["metrics"][metric]["value"]
            gap = (b - a) / a if better == "lower" else (a - b) / a
            limit = 0.0 if metric in exact else bound
            verdict = "" if gap <= limit else "  EXCEEDED"
            worst += bool(verdict)
            print(f"{name:<18} {metric:<18} {a:>12.5g} {b:>12.5g} "
                  f"{gap:>+8.3f} {limit:>6.2f}{verdict}")
        same = (one["manifest"]["trace_digest"] == two["manifest"]["trace_digest"]
                and one["failed"] == two["failed"] == 0)
        if WORKLOADS[name].backend == "sim":
            same = same and ([r["output_digest"] for r in one["manifest"]["reps"]]
                             == [r["output_digest"] for r in two["manifest"]["reps"]])
        if not same:
            worst += 1
            print(f"{name:<18} digests or failures differ between the sets")
    return 1 if worst else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run one workload here: 0 end-to-end, 1 per-layer")
    parser.add_argument("--traced", action="store_true",
                        help="suite: also the traced run of each workload")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS:g} s runs for smoke use, not comparable")
    parser.add_argument("--out", help="write results and manifest to this file")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run two sets and compare them against the bounds")
    args = parser.parse_args(argv)
    require_program()
    from perfbench.workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(
            json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace runs one workload: give --workload")
        return run_single(args)
    if args.repeat_check:
        return repeat_check(args)
    results = run_suite(args)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(results) + "\n")
    return 1 if any(run["failed"] for runs in results.values()
                    for run in runs.values()) else 0
