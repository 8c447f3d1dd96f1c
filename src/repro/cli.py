"""Command-line entry point: rerun any reproduced figure.

Usage::

    python -m repro.cli list
    python -m repro.cli fig09
    python -m repro.cli fig08a --out results/
    python -m repro.cli fig08a --backend mp --duration 5
    python -m repro.cli all
    python -m repro.cli topology --ls 2 --ba 1 --nodes 2
    python -m repro.cli faults --scheduler cameo --shed
    python -m repro.cli faults --scenario ext_partition --describe
    python -m repro.cli trace ext_faults --attribution --out traces/
    python -m repro.cli state --ls 2 --ba 1
    python -m repro.cli checkpoint --interval 0.5

Each figure runs with its benchmark defaults and prints the same table the
corresponding ``benchmarks/test_figNN_*.py`` archives.  The sub-commands
(``topology``, ``faults``, ``state``, ``checkpoint``, ``trace``) build one
tenant mix under a named scenario — healthy, or one of the fault schedules
of :mod:`repro.sim.faults` — and print JSON; each one's ``--help`` says what
it drives and dumps, ``docs/observability.md`` what ``trace`` writes.
"""

from __future__ import annotations

import argparse
import inspect
import json
import pathlib
import sys
import time

from repro import experiments
from repro.experiments.common import TenantMix, build_tenant_mix
from repro.experiments.ext_checkpoint import CHECKPOINT_INTERVAL, make_crash_schedule
from repro.experiments.ext_faults import make_fault_schedule
from repro.experiments.ext_partition import make_partition_schedule
from repro.metrics.export import result_to_json
from repro.obs.attribution import attribute, render_attribution
from repro.obs.export import jsonl_events, write_chrome_trace
from repro.obs.schema import validate_chrome_trace, validate_jsonl_trace
from repro.runtime.invariants import check_single_instance
from repro.runtime.placement import PLACEMENTS
from repro.runtime.topology import _format_address

RUNNERS = {
    "fig01": experiments.run_fig01,
    "fig02": experiments.run_fig02,
    "fig04": experiments.run_fig04,
    "fig06": experiments.run_fig06,
    "fig07": experiments.run_fig07,
    "fig08a": experiments.run_fig08a,
    "fig08b": experiments.run_fig08b,
    "fig08c": experiments.run_fig08c,
    "fig09": experiments.run_fig09,
    "fig10": experiments.run_fig10,
    "fig11a": experiments.run_fig11_single,
    "fig11b": experiments.run_fig11_multi,
    "fig12": experiments.run_fig12,
    "fig13": experiments.run_fig13,
    "fig14": experiments.run_fig14,
    "fig15": experiments.run_fig15,
    "fig16": experiments.run_fig16,
    "ext_starvation": experiments.run_ext_starvation,
    "ext_backpressure": experiments.run_ext_backpressure,
    "ext_elasticity": experiments.run_ext_elasticity,
    "ext_migration": experiments.run_ext_migration,
    "ext_faults": experiments.run_ext_faults,
    "ext_checkpoint": experiments.run_ext_checkpoint,
    "ext_partition": experiments.run_ext_partition,
}

#: topology/faults/state/checkpoint drive the job factories' own 8 sources
#: per job (``TenantMix`` defaults to 4), BA at one message per 3 s
WIDE_SOURCES = {"ls_sources": 8, "ba_sources": 8, "ba_msg_rate": 3.0}


def _parser(command, **defaults) -> argparse.ArgumentParser:
    """The parser of sub-command ``<name>_main`` (its docstring is the help
    text) over the options every tenant-mix command shares; ``defaults`` are
    the command's own."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--ls", type=int, default=None,
                        help="latency-sensitive job count (default 2)")
    parent.add_argument("--ba", type=int, default=None,
                        help="bulk-analytics job count (default 1)")
    parent.add_argument("--nodes", type=int, default=None,
                        help="node count (default: 2, or what the scenario's "
                             "fault schedule needs)")
    parent.add_argument("--workers", type=int, default=2,
                        help="workers per node (default 2)")
    parent.add_argument("--scheduler", default="cameo",
                        choices=["cameo", "fifo", "orleans"])
    parent.add_argument("--duration", type=float,
                        help="driven seconds (default %(default)s)")
    parent.add_argument("--seed", type=int, help="(default %(default)s)")
    parent.add_argument("--out", default=None, metavar="FILE",
                        help="also write the JSON output to FILE")
    parser = argparse.ArgumentParser(
        prog=f"repro.cli {command.__name__.removesuffix('_main')}",
        description=command.__doc__, parents=[parent])
    parser.set_defaults(**defaults)
    return parser


#: scenario -> (what it is, fault schedule factory, default node count,
#: config overrides): the one definition every sub-command reads
SCENARIOS = {
    "mix": ("a healthy tenant mix", None, 2, {}),
    "fig08a": ("the Fig. 8a multi-tenant operating point (4 LS + 4 BA jobs)",
               None, 2, {}),
    "ext_faults": ("the canonical crash+loss schedule", make_fault_schedule, 3, {}),
    "ext_checkpoint": (
        "the crash schedule with checkpointed state recovery on",
        make_crash_schedule, 2,
        {"state_recovery": "checkpoint", "checkpoint_interval": CHECKPOINT_INTERVAL}),
    "ext_partition": (
        "the two-cut partition schedule with quorum fail-over",
        make_partition_schedule, 3,
        {"state_recovery": "replay", "partition_failover": "quorum"}),
}
SCENARIO_HELP = "; ".join(f"{name} = {entry[0]}" for name, entry in SCENARIOS.items())


def _scenario(name: str, duration: float) -> tuple:
    """A named scenario's (fault schedule, default node count, config
    overrides)."""
    _, make_schedule, nodes, overrides = SCENARIOS[name]
    return make_schedule(duration) if make_schedule else None, nodes, overrides


def _build(parser, args, mix: dict, scenario: str = "mix", **overrides):
    """The scenario's engine for a parsed command line: ``--ls`` + ``--ba``
    jobs (default 2 + 1) of the ``mix`` fields placed, source drivers
    installed, not yet run."""
    mix = TenantMix(**{"ls_count": 2, "ba_count": 1, **mix})
    if args.ls is not None:
        mix.ls_count = args.ls
    if args.ba is not None:
        mix.ba_count = args.ba
    if mix.ls_count + mix.ba_count < 1:
        parser.error("need at least one job (--ls/--ba)")
    schedule, nodes, config = _scenario(scenario, args.duration)
    nodes = nodes if args.nodes is None else args.nodes
    if schedule is not None:
        try:
            schedule.validate_cluster(nodes)
        except ValueError as exc:  # the scenario needs a bigger cluster
            parser.error(str(exc))
    return build_tenant_mix(
        args.scheduler, mix, duration=args.duration, nodes=nodes,
        workers_per_node=args.workers, seed=args.seed,
        config_overrides={**config, "fault_schedule": schedule, **overrides},
    )


def _emit(payload, out=None) -> int:
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if out:
        pathlib.Path(out).write_text(text + "\n")
    return 0


def topology_main(argv: list[str]) -> int:
    """Build an engine for a tenant mix and dump the wiring plan (operators,
    placements, channels, reply routes) the TopologyBuilder produces as JSON."""
    parser = _parser(topology_main, duration=1.0, seed=1)
    parser.add_argument("--placement", default="round_robin",
                        choices=list(PLACEMENTS))
    args = parser.parse_args(argv)
    engine = _build(parser, args, WIDE_SOURCES, placement=args.placement)
    return _emit(engine.describe_topology(), args.out)


def faults_main(argv: list[str]) -> int:
    """Drive a tenant mix through a deterministic fault schedule (+5s drain)
    and dump the fault/recovery counters plus the injected-fault timeline as
    JSON."""
    parser = _parser(faults_main, duration=30.0, seed=4)
    parser.add_argument("--scenario", default="ext_faults",
                        choices=["ext_faults", "ext_partition"],
                        help=SCENARIO_HELP + " (default: ext_faults)")
    parser.add_argument("--describe", action="store_true",
                        help="print the schedule itself (windows, rates, "
                             "partition groups) as JSON and exit without "
                             "running anything")
    parser.add_argument("--shed", action="store_true",
                        help="enable deadline-aware load shedding")
    parser.add_argument("--failover", default="quorum",
                        choices=["quorum", "naive"],
                        help="partition fail-over mode under ext_partition "
                             "(default quorum)")
    args = parser.parse_args(argv)

    if args.describe:
        schedule = _scenario(args.scenario, args.duration)[0]
        return _emit(schedule.describe(), args.out)
    partitioned = args.scenario == "ext_partition"
    engine = _build(parser, args, WIDE_SOURCES, args.scenario,
                    shed_expired=args.shed, partition_failover=args.failover,
                    record_timeline=partitioned)
    engine.run(until=args.duration + 5.0)
    report = {
        "scenario": args.scenario,
        "scheduler": args.scheduler,
        "shed_expired": args.shed,
        "schedule": engine.config.fault_schedule.describe(),
        "fault_report": engine.metrics.fault_report(),
        "detection_latencies": engine.metrics.detection_latencies(),
        "timeline": list(engine.fault_timeline.events),
    }
    if partitioned and args.failover == "quorum":
        report["invariant"] = check_single_instance(engine)
    return _emit(report, args.out)


def state_main(argv: list[str]) -> int:
    """Drive a healthy tenant mix briefly (no drain, so open windows stay
    visible) and dump every operator's keyed-state footprint (windows, keys,
    approximate bytes) as JSON."""
    parser = _parser(state_main, duration=6.0, seed=1)
    args = parser.parse_args(argv)
    engine = _build(parser, args, WIDE_SOURCES)
    engine.run(until=args.duration)
    operators = {}
    for op_rt in engine.operator_runtimes:
        store = op_rt.operator.state_store
        if store is not None:
            operators[_format_address(op_rt.address)] = {
                "node": op_rt.node_id,
                "kind": type(store).__name__,
                "pending_windows": store.pending_window_count,
                "keys": store.key_count(),
                "approx_bytes": store.approx_size(),
                "emitted_through": store.emitted_through,
                "snapshot_bytes": len(store.snapshot()),
            }
    totals = {
        total: sum(entry[field] for entry in operators.values())
        for total, field in (("state_bytes", "approx_bytes"), ("keys", "keys"),
                             ("pending_windows", "pending_windows"))
    }
    return _emit({"operators": operators, "totals": totals}, args.out)


def checkpoint_main(argv: list[str]) -> int:
    """Drive the canonical crash schedule (+5s drain) with checkpointed
    state recovery and dump the checkpoint inventory plus the recovery
    counters as JSON."""
    parser = _parser(checkpoint_main, nodes=3, duration=20.0, seed=4)
    parser.add_argument("--interval", type=float, default=1.0,
                        help="checkpoint cadence in seconds (default 1.0)")
    parser.add_argument("--mode", default="checkpoint",
                        choices=["checkpoint", "replay"],
                        help="state recovery mode (default checkpoint)")
    args = parser.parse_args(argv)
    engine = _build(
        parser, args, WIDE_SOURCES, "ext_checkpoint", state_recovery=args.mode,
        checkpoint_interval=args.interval if args.mode == "checkpoint" else 0.0,
    )
    engine.run(until=args.duration + 5.0)
    return _emit({
        "mode": args.mode,
        "scheduler": args.scheduler,
        "fault_report": engine.metrics.fault_report(),
        "checkpoints": engine.checkpoints.describe(),
        "unacked_peak": engine.reliable.unacked_peak,
        "unacked_final": engine.reliable.unacked_total(),
        "timeline": list(engine.fault_timeline.events),
    }, args.out)


def trace_main(argv: list[str]) -> int:
    """Run a (possibly faulted) tenant-mix scenario (+5s drain) with the
    observability plane on; write a Perfetto-loadable Chrome-trace JSON plus a
    flat JSONL event log (see docs/observability.md) into the --out directory
    (default: traces/) and optionally print the deadline-miss attribution
    table."""
    parser = _parser(trace_main, duration=12.0, seed=4, out="traces")
    parser.add_argument("scenario", nargs="?", default="mix",
                        choices=list(SCENARIOS),
                        help=SCENARIO_HELP + " (default: mix)")
    parser.add_argument("--backend", default="sim", choices=["sim", "mp"],
                        help="sim = discrete-event simulation (default); mp "
                             "= real worker processes with wall-clock spans "
                             "merged across process boundaries (a scenario "
                             "mp cannot realise exits 2)")
    parser.add_argument("--shed", action="store_true",
                        help="enable deadline-aware load shedding")
    parser.add_argument("--sample-interval", type=float, default=0.05,
                        help="node sampling cadence: simulated seconds on "
                             "sim, wall-clock seconds (floor 0.01) on mp "
                             "(default 0.05)")
    parser.add_argument("--attribution", action="store_true",
                        help="print the deadline-miss attribution table")
    parser.add_argument("--precision", type=int, default=3)
    args = parser.parse_args(argv)

    overrides = {
        "record_trace": True,
        "trace_sample_interval": args.sample_interval,
        "shed_expired": args.shed,
    }
    if args.backend == "mp":
        overrides["backend"] = "mp"
        overrides["trace_sample_interval"] = max(args.sample_interval, 0.01)
    # the Fig. 8a operating point: 4 LS + 4 BA tenants, BA driven hard
    mix = ({"ls_count": 4, "ba_count": 4, "ba_msg_rate": 20.0}
           if args.scenario == "fig08a" else {})
    try:
        engine = _build(parser, args, mix, args.scenario, **overrides)
    except ValueError as exc:  # the config rejects what mp cannot realise
        print(f"trace: scenario {args.scenario!r} on {args.backend}: {exc}",
              file=sys.stderr)
        return 2
    engine.run(until=args.duration + 5.0)

    directory = pathlib.Path(args.out)
    directory.mkdir(parents=True, exist_ok=True)
    label = f"{args.scenario}_{args.scheduler}"
    chrome_path = directory / f"trace_{label}.json"
    jsonl_path = directory / f"trace_{label}.jsonl"
    process_map = getattr(engine, "process_map", None)
    payload = write_chrome_trace(
        chrome_path, engine.tracer, engine.fault_timeline, label=label,
        process_map=process_map,
    )
    log = jsonl_events(engine.tracer, engine.fault_timeline, label=label)
    jsonl_path.write_text(log)
    problems = validate_chrome_trace(payload) + validate_jsonl_trace(log)
    if problems:  # defensive: the exporters should never emit these
        for problem in problems:
            print(f"schema: {problem}", file=sys.stderr)
        return 1
    summary = {
        "scenario": args.scenario,
        "scheduler": args.scheduler,
        "backend": args.backend,
        "chrome_trace": str(chrome_path),
        "jsonl_log": str(jsonl_path),
        "trace": engine.tracer.summary(),
        "retransmit_backoff_time": engine.metrics.retransmit_backoff_time,
        "backoff_by_channel": engine.backoff_by_channel(),
    }
    if process_map is not None:
        summary["worker_pids"] = {node: entry["pid"]
                                  for node, entry in process_map.items()}
    _emit(summary)
    if args.attribution:
        report = attribute(engine.tracer, engine.metrics)
        print()
        print(render_attribution(report, precision=args.precision))
    return 0


SUBCOMMANDS = {
    "topology": topology_main,
    "faults": faults_main,
    "state": state_main,
    "checkpoint": checkpoint_main,
    "trace": trace_main,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate figures from the Cameo (NSDI 2021) reproduction.",
    )
    parser.add_argument(
        "figure",
        help="figure id (e.g. fig09), 'all', or 'list' to enumerate",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="also write the rendered table(s) to DIR/<figure>.txt",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="with --out, additionally write DIR/<figure>.json",
    )
    parser.add_argument("--precision", type=int, default=3)
    parser.add_argument(
        "--backend", choices=("sim", "mp"), default=None,
        help="execution backend for figures that support it (fig08*, "
             "ext_faults); mp runs the sweep on real worker processes",
    )
    parser.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="override the figure's driven duration (mp runs pace ingest "
             "on the wall clock — shorten for a quick look)",
    )
    args = parser.parse_args(argv)

    if args.figure == "list":
        for name in RUNNERS:
            print(name)
        return 0

    names = list(RUNNERS) if args.figure == "all" else [args.figure]
    unknown = [n for n in names if n not in RUNNERS]
    if unknown:
        parser.error(f"unknown figure(s): {', '.join(unknown)}; try 'list'")

    # forward --backend/--duration only to runners that take them, and
    # reject --backend for figures that don't (silent fallback to sim
    # would misreport what was measured)
    for name in names:
        runner = RUNNERS[name]
        accepted = inspect.signature(runner).parameters
        kwargs = {}
        for flag in ("backend", "duration"):
            if getattr(args, flag) is not None:
                if flag not in accepted:
                    parser.error(f"{name} does not support --{flag}")
                kwargs[flag] = getattr(args, flag)
        started = time.perf_counter()
        result = runner(**kwargs)
        elapsed = time.perf_counter() - started
        text = result.render(args.precision)
        print(text)
        print(f"({elapsed:.1f}s)\n")
        if args.out:
            directory = pathlib.Path(args.out)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / f"{result.name}.txt").write_text(text + "\n")
            if args.json:
                (directory / f"{result.name}.json").write_text(
                    result_to_json(result) + "\n"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
