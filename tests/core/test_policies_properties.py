"""Property tests on policy priority functions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import MIN_PRIORITY, PriorityContext
from repro.core.converter import ContextConverter
from repro.core.deadline import start_deadline
from repro.core.policies import (
    EarliestDeadlineFirstPolicy,
    LeastLaxityFirstPolicy,
    ShortestJobFirstPolicy,
    make_policy,
)
from repro.core.progress_map import IdentityProgressMap
from repro.core.tokens import TokenFairPolicy

request_params = st.fixed_dictionaries({
    "t_mf": st.floats(min_value=0.0, max_value=1e6),
    "latency": st.floats(min_value=0.001, max_value=1e4),
    "c_m": st.floats(min_value=0.0, max_value=10.0),
    "c_path": st.floats(min_value=0.0, max_value=10.0),
})


def assign(policy, p, at_source=False, now=0.0):
    """``(pri_local, pri_global)`` of one hop with ``p_MF = t_MF = p["t_mf"]``."""
    converter = ContextConverter(
        job_name="j", latency_constraint=p["latency"], own_window=None,
        policy=policy, progress_map=IdentityProgressMap(),
    )
    converter.seed_reply_state("next", p["c_m"], p["c_path"])
    pc = converter.build(p=p["t_mf"], t=p["t_mf"], now=now, target_stage="next",
                         target_window=None, at_source=at_source)
    return (pc.pri_local, pc.pri_global)


@given(p=request_params)
@settings(max_examples=150)
def test_llf_is_at_most_edf(p):
    """LLF subtracts the target cost EDF ignores, so its deadline is never
    later than EDF's (equal only when C_oM = 0)."""
    llf = assign(LeastLaxityFirstPolicy(), p)[1]
    edf = assign(EarliestDeadlineFirstPolicy(), p)[1]
    assert llf <= edf
    assert edf - llf == pytest.approx(p["c_m"], abs=1e-6)


@given(p=request_params)
@settings(max_examples=150)
def test_local_priority_is_frontier_progress(p):
    for policy in (LeastLaxityFirstPolicy(), EarliestDeadlineFirstPolicy(),
                   ShortestJobFirstPolicy()):
        assert assign(policy, p)[0] == p["t_mf"]


@given(p=request_params, extra_slack=st.floats(min_value=0.001, max_value=1e4))
@settings(max_examples=150)
def test_llf_monotone_in_slack(p, extra_slack):
    """More latency budget can only lower urgency (raise the key)."""
    lax_params = dict(p)
    lax_params["latency"] = p["latency"] + extra_slack
    policy = LeastLaxityFirstPolicy()
    assert assign(policy, lax_params)[1] > assign(policy, p)[1]


@given(
    rate=st.floats(min_value=1.0, max_value=500.0),
    count=st.integers(min_value=1, max_value=400),
)
@settings(max_examples=80)
def test_token_tags_monotone_within_interval(rate, count):
    """Token tags strictly increase over a source's messages in one
    interval, and never leave the interval."""
    policy = TokenFairPolicy(rates={"j": rate}, interval=1.0)
    source = {"t_mf": 0.0, "latency": 1.0, "c_m": 0.0, "c_path": 0.0}
    tags = []
    for _ in range(count):
        _, tag = assign(policy, source, at_source=True)
        if tag != float("inf"):
            tags.append(tag)
    assert tags == sorted(tags)
    assert len(set(tags)) == len(tags)  # strictly increasing
    assert all(0.0 <= tag < 1.0 for tag in tags)
    # fractional rates round up: tokens are granted while used < rate
    assert len(tags) == min(count, math.ceil(rate))


# -- one policy call per hop: build against each policy's formula ------------

finite = st.floats(min_value=-1e9, max_value=1e9)
non_negative = st.floats(min_value=0.0, max_value=1e9)
POLICY_NAMES = ("llf", "edf", "sjf", "token", "token-free")


def make_named_policy(name):
    if name == "token":
        return TokenFairPolicy(rates={"j": 3.0}, interval=1.0)
    if name == "token-free":  # a job the token policy does not rate-control
        return TokenFairPolicy(rates={"other": 3.0}, interval=1.0)
    return make_policy(name)


def reference_start_deadline(name, t, latency, c_m, c_path):
    """Eq. 3; EDF drops ``C_oM``."""
    return start_deadline(t, latency, 0.0 if name == "edf" else c_m, c_path)


def reference_pc(name, p, t, latency, c_m, c_path, now, inherited, at_source):
    """``(pri_local, pri_global, deadline)`` of one hop to a regular target
    (``p_MF = p``, ``t_MF = t``), computed from each policy's formula."""
    deadline = start_deadline(t, latency, c_m, c_path)
    if name == "llf":
        pair = (p, deadline)
    elif name == "edf":
        pair = (p, start_deadline(t, latency, 0.0, c_path))
    elif name == "sjf":
        pair = (p, c_m)
    elif not at_source:
        pair = ((inherited.pri_local, inherited.pri_global)
                if inherited is not None else (0.0, MIN_PRIORITY))
    elif name == "token-free":
        pair = (0.0, now)
    else:  # the first token of a fresh bucket is tagged at its interval start
        interval_id = math.floor(now / 1.0)
        pair = (float(interval_id), interval_id * 1.0 + 0 / 3.0)
    return (*pair, deadline)


def bits(values):
    return tuple(float(v).hex() for v in values)


@given(
    p=finite, t=finite, latency=non_negative, c_m=non_negative,
    c_path=non_negative, now=non_negative, at_source=st.booleans(),
    inherited=st.none() | st.builds(PriorityContext, finite, finite, finite),
)
@settings(max_examples=300)
def test_build_is_bit_equal_to_the_policy_formulas(
        p, t, latency, c_m, c_path, now, at_source, inherited):
    for name in POLICY_NAMES:
        converter = ContextConverter(
            job_name="j", latency_constraint=latency, own_window=None,
            policy=make_named_policy(name), progress_map=IdentityProgressMap(),
        )
        converter.seed_reply_state("next", c_m, c_path)
        pc = converter.build(p=p, t=t, now=now, target_stage="next",
                             target_window=None, inherited=inherited,
                             at_source=at_source)
        assert bits((pc.pri_local, pc.pri_global, pc.deadline)) == bits(
            reference_pc(name, p, t, latency, c_m, c_path, now, inherited,
                         at_source)), name
        assert bits([converter.admission_priority(now, "next")]) == bits(
            [reference_start_deadline(name, now, latency, c_m, c_path)]), name
        # no feedback from a stage yet: zero costs, i.e. now + L
        assert bits([converter.admission_priority(now, "unseen")]) == bits(
            [now + latency]), name


@given(t=finite, latency=non_negative, c_m=non_negative, c_path=non_negative)
@settings(max_examples=300)
def test_policy_start_deadline_is_its_form_of_eq3(t, latency, c_m, c_path):
    for name in POLICY_NAMES:
        assert bits([make_named_policy(name).start_deadline(
            t, latency, c_m, c_path)]) == bits(
            [reference_start_deadline(name, t, latency, c_m, c_path)]), name
