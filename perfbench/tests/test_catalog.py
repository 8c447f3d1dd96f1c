"""The metric catalog, the workloads and ``BENCHMARK.json`` stay in step."""

from __future__ import annotations

import json
import re

from perfbench import ROOT
from perfbench.catalog import END_TO_END, PER_LAYER, benchmark_json
from perfbench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_units_and_counts_fit_the_contract():
    names = [w for w in WORKLOADS] + [m[0] for m in END_TO_END + PER_LAYER]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert all(UNIT.fullmatch(m[1]) for m in END_TO_END + PER_LAYER)
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS.values())


def test_end_to_end_bounds():
    by_name = {name: (better, bound) for name, _, better, bound in END_TO_END}
    assert by_name["setup_s"][0] == "lower"
    assert all(0 < bound <= 0.25 for _, bound in by_name.values())
    # set-up has the largest bound
    assert by_name["setup_s"][1] == max(bound for _, bound in by_name.values())


def test_benchmark_json_lists_the_catalog():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == benchmark_json(WORKLOADS.values(), on_disk["run_seconds"])
    assert set(on_disk) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}
    assert on_disk["paths"] == ["perfbench"]


def test_quick_run_prints_every_listed_name_and_no_other(quick_suite):
    results, printed = quick_suite
    listed = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[
        "end_to_end"]}, {m[0] for m in PER_LAYER}
    assert set(results) == set(WORKLOADS)
    for name, runs in results.items():
        assert set(runs["untraced"]["metrics"]) == listed[0], name
        assert set(runs["traced"]["metrics"]) == listed[1], name
        assert runs["untraced"]["failed"] == 0 and runs["traced"]["failed"] == 0, name
        assert runs["untraced"]["manifest"]["comparable"] is False
    for metric in listed[0] | listed[1]:
        assert re.search(rf"^{re.escape(metric)}\s", printed, re.M), metric
