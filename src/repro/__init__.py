"""repro — reproduction of Montebugnoli & Ciampolini, SC-W 2023.

*Energy consumption comparison of parallel linear systems solver
algorithms on HPC infrastructure* (DOI 10.1145/3624062.3624266), rebuilt
as a fully simulated stack: a discrete-event MPI runtime, a Marconi-A3
cluster/power model, RAPL MSRs with a PAPI-like API, the IMe and
ScaLAPACK-style solvers, the paper's white-box monitoring framework, and
an analytic mode regenerating every figure at paper scale.

Typical entry points:

>>> from repro import generate_system, ime_solve
>>> s = generate_system(64, seed=7)
>>> x = ime_solve(s.a, s.b)

>>> from repro import ExperimentSpec, MonitoringFramework, LoadShape
>>> from repro import marconi_a3, run_analytic

See README.md for the full tour and EXPERIMENTS.md for the reproduced
results.
"""

__version__ = "1.0.0"

__paper__ = {
    "title": ("Energy consumption comparison of parallel linear systems "
              "solver algorithms on HPC infrastructure"),
    "authors": ("Sofia Montebugnoli", "Anna Ciampolini"),
    "venue": "SC-W 2023 (Workshops of SC23)",
    "doi": "10.1145/3624062.3624266",
}

#: every public name of the facade → the module that defines it.  A name
#: is imported on first access (PEP 562), so ``import repro`` loads no
#: other ``repro`` module and each name costs only its own module.
_EXPORTS = {
    "MachineSpec": "repro.cluster.machine",
    "marconi_a3": "repro.cluster.machine",
    "small_test_machine": "repro.cluster.machine",
    "Layout": "repro.cluster.placement",
    "LoadShape": "repro.cluster.placement",
    "Placement": "repro.cluster.placement",
    "place_ranks": "repro.cluster.placement",
    "ExperimentResult": "repro.core.framework",
    "ExperimentSpec": "repro.core.framework",
    "MonitoringFramework": "repro.core.framework",
    "WhiteBoxMonitor": "repro.core.monitoring",
    "monitored_program": "repro.core.monitoring",
    "run_analytic": "repro.experiments.runner",
    "ComputeProfile": "repro.perfmodel.calibration",
    "RankContext": "repro.runtime.context",
    "Job": "repro.runtime.job",
    "JobResult": "repro.runtime.job",
    "gaussian_elimination": "repro.solvers.dense",
    "relative_residual": "repro.solvers.dense",
    "ime_parallel_program": "repro.solvers.ime.parallel",
    "ime_solve": "repro.solvers.ime.sequential",
    "ScalapackOptions": "repro.solvers.scalapack.pdgesv",
    "pdgesv_program": "repro.solvers.scalapack.pdgesv",
    "PAPER_MATRIX_SIZES": "repro.workloads.generator",
    "LinearSystem": "repro.workloads.generator",
    "generate_system": "repro.workloads.generator",
    "load_system": "repro.workloads.matrixio",
    "save_system": "repro.workloads.matrixio",
}

__all__ = ["__version__", "__paper__", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        # Not a facade name: ``from repro import bench`` then falls back
        # to importing the submodule.
        raise AttributeError(f"module 'repro' has no attribute {name!r}") \
            from None
    from importlib import import_module

    return getattr(import_module(module), name)
