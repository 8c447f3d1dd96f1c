"""Context converters: priority generation at the operator (Algorithm 1).

A converter is embedded in every operator (and in the ingestion client in
front of every source operator).  When its operator sends a message, the
converter builds the outgoing :class:`~repro.core.context.PriorityContext`:

1. ``p_MF = TRANSFORM(p_M)`` — window arithmetic against the *target*
   stage's slide (§4.3 step 1).  Skipped when query-semantics awareness is
   disabled (Fig. 15 ablation).
2. ``t_MF = PROGRESSMAP(p_MF)`` — identity for ingestion time, online
   linear regression for event time (§4.3 step 2).  The regression is fed
   the observed ``(p_M, t_M)`` pair on every conversion (Alg. 1 line 15).
   When no extension happened (``p_MF == p_M``) the *observed* ``t_M`` is
   used directly, and when the model cannot be trusted yet the windowed
   target is treated as regular (§4.3 last paragraph).
3. The pluggable policy turns ``(p_MF, t_MF, L, C_m, C_path)`` into the
   ``(PRI_local, PRI_global)`` pair.  ``C_m``/``C_path`` come from the
   freshest Reply Context received from the target stage (Alg. 1 line 17).

Reply handling implements PREPAREREPLY / PROCESSCTXFROMREPLY: each operator
answers processed messages with an RC carrying its profiled cost and its
current max downstream critical-path cost, which the upstream converter
stores per target stage.
"""

from __future__ import annotations

from typing import Optional

from repro.core.context import PriorityContext, ReplyContext, ReplyState
from repro.core.deadline import start_deadline
from repro.core.policies import (
    EarliestDeadlineFirstPolicy,
    LeastLaxityFirstPolicy,
    PriorityRequest,
    SchedulingPolicy,
)
from repro.core.progress_map import ProgressMap
from repro.core.transform import stage_slide, transform
from repro.dataflow.windows import WindowSpec


class ContextConverter:
    """Per-operator context converter.

    Args:
        job_name: owning job (policies may key internal state on it).
        latency_constraint: the job's end-to-end target ``L``.
        own_window: the window of the operator this converter is embedded
            in (None for regular operators and for the ingestion client) —
            determines the upstream slide used by TRANSFORM.
        policy: the pluggable scheduling policy.
        progress_map: the job's PROGRESSMAP implementation.
        use_query_semantics: when False, deadlines are never extended to
            window frontiers (topology-only scheduling, Fig. 15).
        source_index: identifies the source operator for token accounting.
    """

    def __init__(
        self,
        job_name: str,
        latency_constraint: float,
        own_window: Optional[WindowSpec],
        policy: SchedulingPolicy,
        progress_map: ProgressMap,
        use_query_semantics: bool = True,
        source_index: int = 0,
    ):
        self.job_name = job_name
        self.latency_constraint = latency_constraint
        self.own_window = own_window
        self.policy = policy
        self.progress_map = progress_map
        self.use_query_semantics = use_query_semantics
        self.source_index = source_index
        self.reply_state = ReplyState()
        #: last progress sent per target stage, for boundary-crossing
        #: detection: (progress, crossed_boundary)
        self._last_sent: dict[str, tuple[float, bool]] = {}

    # -- PC construction (BUILDCXTATSOURCE / BUILDCXTATOPERATOR) ------------

    def build(
        self,
        p: float,
        t: float,
        now: float,
        target_stage: str,
        target_window: Optional[WindowSpec],
        tuple_count: int = 0,
        inherited: Optional[PriorityContext] = None,
        at_source: bool = False,
    ) -> PriorityContext:
        """Build the PC for an outgoing message (CXTCONVERT of Alg. 1).

        ``p``/``t`` are the outgoing message's stream progress and physical
        anchor; ``inherited`` is the PC of the upstream message that
        triggered this send (None at the ingestion point).
        """
        p_mf, t_mf = self._frontier(p, t, target_window, target_stage)
        rc = self.reply_state.get(target_stage)
        c_m = rc.c_m if rc is not None else 0.0
        c_path = rc.c_path if rc is not None else 0.0
        policy = self.policy
        if type(policy) is LeastLaxityFirstPolicy:
            # the default policy's priority pair is the Eq. 3 deadline the
            # PC records anyway — skip the request object round-trip
            deadline = start_deadline(
                t_mf, self.latency_constraint, c_m, c_path
            )
            pri_local, pri_global = p_mf, deadline
        else:
            request = PriorityRequest(
                now=now,
                p_mf=p_mf,
                t_mf=t_mf,
                t_m=t,
                latency_constraint=self.latency_constraint,
                c_m=c_m,
                c_path=c_path,
                at_source=at_source,
                job_name=self.job_name,
                source_index=self.source_index,
                tuple_count=tuple_count,
                inherited=inherited,
            )
            pri_local, pri_global = policy.assign(request)
            deadline = request.llf_deadline
        pc = PriorityContext(
            pri_local=pri_local,
            pri_global=pri_global,
            p_mf=p_mf,
            t_mf=t_mf,
            latency_constraint=self.latency_constraint,
            deadline=deadline,
        )
        if inherited is not None:
            pc.token_interval = inherited.token_interval
        return pc

    def admission_priority(self, now: float, target_stage: str) -> float:
        """The ``pri_global`` a batch sent to ``target_stage`` at ``now``
        would carry under LLF (Eq. 3 with ``t_MF = now``; EDF drops
        ``C_oM``), read without side effects: the progress map is not fed,
        no window frontier extends it and the policy is not asked.  The mp
        ingest gate compares it with the run queue before admitting."""
        rc = self.reply_state.get(target_stage)
        if rc is None:
            return now + self.latency_constraint
        c_m = 0.0 if type(self.policy) is EarliestDeadlineFirstPolicy else rc.c_m
        return start_deadline(now, self.latency_constraint, c_m, rc.c_path)

    def _frontier(
        self, p: float, t: float, target_window: Optional[WindowSpec],
        target_stage: str,
    ) -> tuple[float, float]:
        """Steps 1+2 of §4.3: ``(p_MF, t_MF)`` for the outgoing message.

        Deadline extension only applies to messages *interior* to a window.
        A message whose progress crosses a window boundary is the trigger
        for the window(s) before that boundary — postponing it would delay
        an output that is already due, so it keeps ``(p, t)``.  (In the
        paper's aligned-batch deployment closers carry boundary timestamps
        and fall out of TRANSFORM's equal-slide branch; with continuous
        event times the crossing must be detected explicitly.)
        """
        # feed the prediction model with the observed pair (Alg. 1 line 15)
        self.progress_map.update(p, t)
        if not self.use_query_semantics or target_window is None:
            return (p, t)
        p_mf = transform(p, stage_slide(self.own_window), stage_slide(target_window))
        if p_mf == p:
            # no extension: the observed physical time is exact
            return (p, t)
        if self._crosses_boundary(p, target_window, target_stage):
            return (p, t)
        t_mf = self.progress_map.map(p_mf)
        if t_mf is None or t_mf < t:
            # model unavailable or inconsistent: conservatively treat the
            # windowed operator as regular (§4.3)
            return (p, t)
        return (p_mf, t_mf)

    def _crosses_boundary(
        self, p: float, target_window: WindowSpec, target_stage: str
    ) -> bool:
        """True when this message pushes the channel's progress past a
        window boundary of the target (i.e. it completes a window)."""
        last = self._last_sent.get(target_stage)
        if last is not None and last[0] == p:
            return last[1]  # same emission fanned out to several partitions
        if last is None or not (last[0] == last[0] and abs(last[0]) != float("inf")):
            crossed = True  # first message / unknown progress: treat as closer
        else:
            crossed = p >= target_window.first_window_end(last[0])
        self._last_sent[target_stage] = (p, crossed)
        return crossed

    # -- RC handling (PREPAREREPLY / PROCESSCTXFROMREPLY) --------------------

    def prepare_reply(self, own_cost: float) -> ReplyContext:
        """RC sent upstream after this converter's operator processed a
        message: own profiled cost + max downstream critical path."""
        return ReplyContext(c_m=own_cost, c_path=self.reply_state.max_downstream_cost())

    def process_reply(self, target_stage: str, rc: ReplyContext) -> None:
        """Store feedback received from a downstream (target) operator."""
        self.reply_state.update(target_stage, rc)

    def seed_reply_state(self, target_stage: str, c_m: float, c_path: float) -> None:
        """Warm-start the RC store from static cost estimates, standing in
        for the paper's offline profiling pass.  Never overwrites live
        feedback."""
        if self.reply_state.get(target_stage) is None:
            self.reply_state.update(target_stage, ReplyContext(c_m=c_m, c_path=c_path))
