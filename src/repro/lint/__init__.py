"""repro.lint — simulation-correctness static analysis.

The reproduction stands on two invariants the rest of the stack takes
for granted:

1. **Simulated MPI calls actually execute.**  Every blocking operation
   of the DES runtime is a generator (``comm.bcast``, ``ctx.compute``,
   ``req.wait`` …) that does nothing until driven with ``yield from`` —
   a forgotten ``yield from`` silently no-ops and corrupts results
   instead of failing loudly.
2. **Runs are bit-deterministic.**  The fast-path equivalence contract
   (:mod:`repro.simmpi.fastcoll`) and the byte-identical trace exports
   both assume a run is a pure function of its seed, so wall-clock
   reads, unseeded randomness, and set-iteration ordering are banned
   inside ``src/repro``.

``repro lint`` turns those invariants (plus the MPI protocol discipline
of ``docs/monitoring-protocol.md`` and span hygiene of ``repro.obs``)
into checked properties.  Rule catalog and suppression syntax:
``docs/static-analysis.md``.  The runtime complement — the MPI
sanitizer — lives in :mod:`repro.simmpi.sanitizer`.

Public API (each name from the module that defines it)::

    from repro.lint.runner import LintOptions, lint_paths, lint_source
    result = lint_paths(["src/repro", "tools", "examples"])
    for finding in result.findings:
        print(finding.format())

``lint_paths`` keeps no state between calls: its findings depend only
on the files' sources and on the paths they are linted under (the DET
scope and the ``experiments/`` and ``serve/`` rules read the path).
"""
