"""The paper's contribution: white-box energy monitoring for MPI solvers.

One rank per node (the highest rank in the node's shared-memory
communicator) is *injected* with the monitoring component: it initializes
PAPI, opens the powercap event set (CPU packages 0/1 and DRAM 0/1), and
brackets the solver execution between barrier-synchronized start/stop
reads (§4, Figure 2).  The testing framework runs monitored jobs with
repetitions and automatically collects and stores results in a
human-readable format (§4's requirements list).
"""
