"""Cold start: importing an entry point must not load ``scipy.linalg``.

``scipy.linalg`` costs about as much to import as the rest of the
package, and only the numeric kernels use it (the panel flush's
``dgemm`` and ``pdgesv``'s triangular solves).  Each check runs in a
fresh interpreter, since this test process has long loaded it.
"""

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
