"""Declarative YAML experiment & hardware configs (ROADMAP item 4).

Public surface of the spec subsystem, all in
:mod:`repro.experiments.spec.loader`:

* :func:`load_spec` / :func:`load_text` — parse + validate into a
  :class:`RunSpec` (raising :class:`SpecError` with every field-level
  issue), returning lint-style warnings alongside;
* :func:`check_path` / :func:`check_text` — the non-raising variants
  ``repro validate-config`` drives;
* :func:`compile_tasks` — lower a spec to the exact
  :class:`~repro.experiments.sweep.SweepTask` tuples of the
  constructor-driven path (bit-identical results, shared cache entries);
* :func:`dump_spec` — canonical round-tripping text.

See docs/configuration.md for the full schema reference.
"""
