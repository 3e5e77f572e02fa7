"""Simulated HPC cluster substrate.

Models the hardware the paper ran on: nodes with two CPU packages (sockets)
of 24 cores each plus two DRAM domains, an OmniPath-class interconnect, and a
Slurm-like placement layer that maps MPI ranks onto nodes/sockets/cores
according to the deployment shapes of the paper's Table 1 (full load,
half load on one socket, half load across two sockets).
"""
