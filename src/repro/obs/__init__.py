"""repro.obs — the unified observability layer of the simulated stack.

One import surface for the four pieces documented in
``docs/observability.md``:

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

from repro.obs.export import (
    chrome_trace_events,
    dumps_chrome_trace,
    trace_document,
    write_chrome_trace,
)
from repro.obs.metrics import MetricKey, MetricsRegistry
from repro.obs.report import energy_report, metrics_report, phase_energy
from repro.obs.symbolic import SymbolicOptions, run_traced
from repro.obs.tracer import (
    ENERGY_SNAPSHOT_CATS,
    CounterSample,
    InstantEvent,
    Span,
    SpanTracer,
    Tracer,
)

__all__ = [
    "ENERGY_SNAPSHOT_CATS",
    "CounterSample",
    "InstantEvent",
    "MetricKey",
    "MetricsRegistry",
    "Span",
    "SpanTracer",
    "SymbolicOptions",
    "Tracer",
    "chrome_trace_events",
    "dumps_chrome_trace",
    "energy_report",
    "metrics_report",
    "phase_energy",
    "run_traced",
    "trace_document",
    "write_chrome_trace",
]
