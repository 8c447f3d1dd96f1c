"""Fixtures of the benchmark's own tests (``python -m pytest perfbench/tests``)."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from perfbench import ROOT, require_program

require_program()


@pytest.fixture(scope="session")
def quick_suite(tmp_path_factory):
    """One ``--quick --traced`` suite: ``workload -> {untraced, traced}``
    details plus everything the command printed."""
    out = tmp_path_factory.mktemp("perfbench") / "suite.json"
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--quick", "--traced", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr + done.stdout
    return json.loads(out.read_text()), done.stdout
