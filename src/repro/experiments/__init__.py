"""Reproduction of the paper's evaluation (§5).

* ``configs`` — the parameter space: Table 1's nine deployments × the four
  matrix dimensions, ten repetitions per job;
* ``runner`` — executes configurations in analytic mode (paper scale) or
  through the monitored DES (validation scale);
* ``figures`` — the data series behind Figures 3–7;
* ``summary`` — the §5.4 comparison metrics (energy/power/DRAM gaps).
"""
