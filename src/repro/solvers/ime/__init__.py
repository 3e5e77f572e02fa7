"""The Inhibition Method (IMe) linear-system solver.

IMe (Ciampolini 1963; Artioli et al. 2001/2019/2020) is an iterative,
exact, non-inverting, pivot-free method.  It computes an *inhibition table*
``T(n) = [ diag(1/aᵢᵢ) | diag(1/aᵢᵢ)·Aᵀ ]`` and a vector ``h(n)`` of
*auxiliary quantities*, then reduces the table level by level until only
elementary sub-systems remain (§2.1 of the reproduced paper).

The fundamental formula is published in prior IMe papers not available to
this reproduction; :mod:`repro.solvers.ime.sequential` documents the exact
reconstruction used here (column-operation reduction of the right block
with ``h`` transforming as an extended row, giving ``xᵢ = hᵢ/aᵢᵢ``), which
preserves the published table layout, the level structure, the column-wise
parallel communication pattern, and the asymptotic complexity.

* ``sequential`` — single-process solver (validation reference).
* ``parallel`` — IMeP, the column-wise parallel scheme on simulated MPI.
* ``costmodel`` — the paper's published complexity formulas (flops,
  messages, volume, memory occupation) driving the analytic mode.
"""
