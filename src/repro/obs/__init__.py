"""Observability plane: message tracing, attribution, introspection.

The ``repro.obs`` package turns the simulator into a debuggable system
(see ``docs/observability.md``):

* :mod:`repro.obs.spans` — the span model: one
  :class:`~repro.obs.spans.MessageSpan` per message hop whose timestamps
  telescope exactly into network / recovery / queueing / execution
  components, plus per-node :class:`~repro.obs.spans.SchedSample`
  scheduler snapshots.
* :mod:`repro.obs.recorder` — the span recorder
  (:class:`~repro.obs.recorder.TraceRecorder`).  With tracing off the
  runtime holds no recorder at all, so the hot path is untouched.
* :mod:`repro.obs.introspect` — the node sampler
  (:func:`~repro.obs.introspect.sample`) both backends read their nodes
  with, and the sim's periodic
  :class:`~repro.obs.introspect.SchedulerSampler`.
* :mod:`repro.obs.attribution` — deadline-miss attribution: decompose
  every missed output's causal chain and report the "slack thief".
* :mod:`repro.obs.export` — Chrome-trace (Perfetto) JSON and flat JSONL
  exporters.
* :mod:`repro.obs.schema` — minimal structural validators of both export
  formats (the CI smoke check).
* :mod:`repro.obs.merge` — cross-process assembly of the mp backend:
  :class:`~repro.obs.merge.SpanMerger` folds per-worker span parts into
  whole spans and every worker's node samples into one time series (the
  sensor substrate for autoscaling experiments).

Enable with ``EngineConfig(record_trace=True)`` or run
``python -m repro.cli trace <experiment>`` (``--backend mp`` for real
worker processes).  Import from the submodules: the package re-exports
nothing, so an untraced run loads only what it uses.
"""
