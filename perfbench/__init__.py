"""Repository benchmark: workloads, tracing and the run harness."""
