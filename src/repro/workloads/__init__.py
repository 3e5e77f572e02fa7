"""Workload generation and I/O.

The paper's input systems are "not generated at runtime but loaded from a
file to ensure consistent input data for repetitive measurements" (§5.1).
``generator`` builds seeded, diagonally-dominant dense systems (the
applicability condition of the pivot-free IMe); ``matrixio`` persists them
so repeated jobs consume byte-identical inputs.
"""
