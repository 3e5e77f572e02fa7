"""Gaussian Elimination over a 2D block-cyclic layout (ScaLAPACK model).

Reimplements the pieces of ScaLAPACK the paper benchmarks (§2.2):

* ``grid`` — a BLACS-like 2D process grid;
* ``blockcyclic`` — the block-cyclic data distribution (``numroc`` and the
  global↔local index maps);
* ``pdgesv`` — right-looking LU factorization with partial pivoting plus
  the distributed triangular solves, as simulated-MPI rank programs;
* ``costmodel`` — the canonical communication/computation cost model of
  block-cyclic LU for the analytic mode.
"""
