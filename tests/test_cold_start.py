"""Cold start: an entry point loads only the code it runs.

``scipy.linalg`` costs about as much to import as the rest of the
package, and only the numeric kernels use it (the panel flush's
``dgemm`` and ``pdgesv``'s triangular solves).  The analytic and
serving entry points run no DES, so they must not load ``simmpi``,
``runtime`` or ``core``; that holds only while every package
``__init__`` except the ``repro`` facade imports nothing.  Each import
check runs in a fresh interpreter, since this test process has long
loaded everything.
"""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

ENTRY_POINTS = ("repro", "repro.cli", "repro.experiments.sweep",
                "repro.experiments.runner", "repro.obs.symbolic",
                "repro.serve.app")


def _run_fresh(code: str) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin",
             "REPRO_CACHE_DIR": "off", "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_entry_point_import_leaves_scipy_linalg_unloaded(module):
    _run_fresh(f"""
        import sys
        import {module}
        assert "scipy.linalg" not in sys.modules, "{module} loads scipy.linalg"
    """)


DES_PACKAGES = ("simmpi", "runtime", "core")


@pytest.mark.parametrize("modules", [
    "repro.experiments.sweep, repro.experiments.runner",
    "repro.serve.app",
])
def test_analytic_and_serving_imports_leave_the_des_unloaded(modules):
    _run_fresh(f"""
        import sys
        import {modules}
        des = sorted(m for m in sys.modules if m.startswith("repro.")
                     and m.split(".")[1] in {DES_PACKAGES!r})
        assert not des, des
    """)


RAPL_STACK = ("repro.energy.rapl", "repro.energy.msr",
              "repro.energy.accounting")


@pytest.mark.parametrize("modules", [
    "repro.experiments.sweep, repro.experiments.runner",
    "repro.serve.app",
])
def test_analytic_and_serving_imports_leave_the_rapl_stack_unloaded(modules):
    """The analytic energy integral names its domains through
    ``repro.energy.domains``; the simulated registers stay unloaded."""
    _run_fresh(f"""
        import sys
        import {modules}
        loaded = sorted(m for m in {RAPL_STACK!r} if m in sys.modules)
        assert not loaded, loaded
    """)


def test_facade_loads_each_name_on_first_access():
    _run_fresh("""
        import sys
        import repro
        loaded = sorted(m for m in sys.modules if m.startswith("repro."))
        assert not loaded, loaded
        from repro import Job, ime_solve, run_analytic
        assert Job.__module__ == "repro.runtime.job"
        assert ime_solve.__module__ == "repro.solvers.ime.sequential"
        assert run_analytic.__module__ == "repro.experiments.runner"
    """)


def test_package_inits_import_nothing():
    """Every sub-package ``__init__`` is its docstring only: a name is
    imported from the module that defines it, and ``repro`` is the one
    facade."""
    inits = sorted((REPO / "src" / "repro").glob("*/**/__init__.py"))
    assert len(inits) >= 16
    offenders = [
        f"{path.relative_to(REPO)}:{node.lineno}"
        for path in inits
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not offenders, offenders


@pytest.mark.parametrize("algorithm, flushes", [("ime", True),
                                                ("scalapack", False)])
def test_numeric_job_still_reaches_scipy_linalg(algorithm, flushes):
    """The lazy loads are reached: a small monitored job solves through
    the scipy kernels, and only then is ``scipy.linalg`` loaded.  IMe
    gets there through the panel flush's ``dgemm``; ``pdgesv`` through
    its triangular solves (its left-looking panel never flushes)."""
    _run_fresh(f"""
        import sys
        from dataclasses import replace

        import numpy as np

        from repro.cluster.machine import small_test_machine
        from repro.cluster.placement import LoadShape
        from repro.core.framework import ExperimentSpec, MonitoringFramework
        from repro.perfmodel.calibration import profile_for
        from repro.solvers import kernels
        from repro.workloads.generator import generate_system

        assert "scipy.linalg" not in sys.modules
        spec = ExperimentSpec(
            algorithm="{algorithm}", system=generate_system(48, seed=42),
            ranks=4, shape=LoadShape.FULL, repetitions=1,
            machine=small_test_machine(cores_per_socket=2),
            profile=replace(profile_for("{algorithm}"),
                            eff_flops_per_core=2.0e5))
        run, = MonitoringFramework().run_experiment(spec).runs
        ref = np.linalg.solve(spec.system.a, spec.system.b)
        np.testing.assert_allclose(run.solution, ref, atol=1e-9)
        assert "scipy.linalg" in sys.modules
        assert (kernels._dgemm not in (None, kernels._UNRESOLVED)) == {flushes}
    """)
