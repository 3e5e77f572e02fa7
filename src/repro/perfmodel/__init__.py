"""Analytic execution mode and machine/solver calibration.

Python cannot execute the paper's 10¹³-flop matrix factorizations, so the
paper-scale series (n up to 34560 on up to 1296 ranks) are produced by a
closed-form evaluation of the two solvers' cost models against the same
machine parameters the discrete-event simulator uses.  The analytic mode is
cross-validated against numeric-DES runs on overlapping problem sizes (see
``benchmarks/test_model_crossval.py``); the shared coefficients live in
:mod:`repro.perfmodel.calibration`.
"""
