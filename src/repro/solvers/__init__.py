"""Linear-system solvers: the two algorithms the paper compares.

* :mod:`repro.solvers.ime` — the Inhibition Method (IMe): an exact,
  pivot-free, iterative solver working on the n×2n inhibition table, with
  the column-wise parallel scheme (IMeP) of §2.1.
* :mod:`repro.solvers.scalapack` — Gaussian Elimination with partial
  pivoting over a 2D block-cyclic layout, modelled on ScaLAPACK's
  ``pdgesv`` (§2.2).
* :mod:`repro.solvers.dense` — sequential reference solvers and residual
  checks used to validate both.
"""
