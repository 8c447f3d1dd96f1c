"""Smoke tests for the example scripts.

Each example must import cleanly and expose a ``main``; the fastest one is
executed end to end.  (The heavier examples run the same code paths the
benchmark suite exercises at scale.)
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def load(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_examples_exist():
    names = {p.stem for p in EXAMPLES}
    assert {"quickstart", "multi_tenant_isolation", "fair_sharing_tokens",
            "policy_comparison", "trace_replay", "schedule_timeline",
            "custom_policy"} <= names


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports_and_has_main(path):
    module = load(path)
    assert callable(getattr(module, "main", None))


def test_quickstart_runs_end_to_end(capsys):
    module = load(EXAMPLES_DIR / "quickstart.py")
    module.main()
    out = capsys.readouterr().out
    assert "revenue-per-second" in out
    assert "deadline success rate" in out


def test_custom_policy_ranks_classes_through_build():
    """The example's policy, driven through the converter: a higher class
    outranks a lower one by its offset, and within a class the pair is
    LLF's (``p_MF``, Eq. 3 start deadline)."""
    from repro.core.converter import ContextConverter
    from repro.core.progress_map import IdentityProgressMap

    policy = load(EXAMPLES_DIR / "custom_policy.py").StrictClassPolicy(
        {"gold": 2, "bronze": 1})
    pcs = {}
    for job in ("gold", "bronze", "unclassed"):
        converter = ContextConverter(
            job_name=job, latency_constraint=1.0, own_window=None,
            policy=policy, progress_map=IdentityProgressMap(),
        )
        converter.seed_reply_state("next", 0.125, 0.25)
        pcs[job] = converter.build(p=3.0, t=3.0, now=3.0, target_stage="next",
                                   target_window=None)
    deadline = 3.0 + 1.0 - 0.125 - 0.25
    offset = policy.CLASS_OFFSET
    assert (pcs["gold"].pri_local, pcs["gold"].pri_global) == (3.0, deadline - 2 * offset)
    assert pcs["bronze"].pri_global == deadline - offset
    assert pcs["unclassed"].pri_global == deadline
    assert all(pc.deadline == deadline for pc in pcs.values())
