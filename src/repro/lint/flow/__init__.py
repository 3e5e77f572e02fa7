"""Semantic-analysis layer under the lint rules.

``repro.lint.flow`` turns the shared per-module AST view
(:mod:`repro.lint.model`) into the structures the flow-based rule
families (UNIT, DET1xx, MPIS) plug into:

* :mod:`~repro.lint.flow.cfg` — per-function statement-level CFGs;
* :mod:`~repro.lint.flow.dataflow` — the generic forward
  dataflow/taint fixpoint, reaching definitions, def-use chains;
* :mod:`~repro.lint.flow.callgraph` — the interprocedural call graph
  and the function-summary fixpoint.

See ``docs/static-analysis.md`` for the architecture write-up.
"""
