"""repro.obs — the unified observability layer of the simulated stack.

The pieces documented in ``docs/observability.md``, each imported
from the module that defines it:

* :class:`~repro.obs.tracer.SpanTracer` — span/instant/counter recording
  plus the engine hook implementations (attach with
  :meth:`repro.runtime.job.Job.attach_tracer`);
* :class:`~repro.obs.metrics.MetricsRegistry` — per-rank/per-node
  counter and gauge aggregation;
* :mod:`repro.obs.export` — Chrome Trace Event Format JSON (open in
  ``chrome://tracing`` or https://ui.perfetto.dev);
* :mod:`repro.obs.report` — the plain-text per-phase energy attribution
  and metrics tables;
* :mod:`repro.obs.symbolic` — the exact solver skeletons and the
  :func:`~repro.obs.symbolic.run_traced` driver behind ``repro trace``.
"""
