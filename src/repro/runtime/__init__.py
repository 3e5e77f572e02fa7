"""Execution runtime: wires the simulator, cluster, energy stack, and MPI.

A :class:`~repro.runtime.job.Job` instantiates one simulated machine
allocation (nodes + RAPL state + fabric + MPI world) and runs one rank
program per MPI rank.  Each rank program receives a
:class:`~repro.runtime.context.RankContext` through which it charges compute
time/energy to its bound core and accesses its node's PAPI instance.
"""
