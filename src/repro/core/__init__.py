"""Cameo's contribution: contexts, converters, priority policies, scheduler."""

from repro.core.context import MIN_PRIORITY, PriorityContext, ReplyContext, ReplyState
from repro.core.converter import ContextConverter
from repro.core.deadline import start_deadline
from repro.core.policies import (
    EarliestDeadlineFirstPolicy,
    LeastLaxityFirstPolicy,
    SchedulingPolicy,
    ShortestJobFirstPolicy,
    make_policy,
)
from repro.core.profiler import CostProfiler, GaussianNoiseInjector
from repro.core.progress_map import (
    IdentityProgressMap,
    LinearProgressMap,
    ProgressMap,
    make_progress_map,
)
from repro.core.scheduler import (
    CameoRunQueue,
    FifoMailbox,
    Mailbox,
    PriorityMailbox,
    RunQueue,
)
from repro.core.tokens import TokenFairPolicy
from repro.core.transform import REGULAR_SLIDE, frontier_progress, stage_slide, transform

__all__ = [
    "CameoRunQueue",
    "ContextConverter",
    "CostProfiler",
    "EarliestDeadlineFirstPolicy",
    "FifoMailbox",
    "GaussianNoiseInjector",
    "IdentityProgressMap",
    "LeastLaxityFirstPolicy",
    "LinearProgressMap",
    "Mailbox",
    "MIN_PRIORITY",
    "PriorityContext",
    "PriorityMailbox",
    "ProgressMap",
    "REGULAR_SLIDE",
    "ReplyContext",
    "ReplyState",
    "RunQueue",
    "SchedulingPolicy",
    "ShortestJobFirstPolicy",
    "TokenFairPolicy",
    "frontier_progress",
    "make_policy",
    "make_progress_map",
    "stage_slide",
    "start_deadline",
    "transform",
]
