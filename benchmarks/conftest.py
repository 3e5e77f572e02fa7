"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's evaluation artifacts
(Table 1 or Figures 3–7) or one of the extension experiments.  Each prints
the same rows/series the paper reports and writes them under
``benchmarks/results/`` for EXPERIMENTS.md.

They run in the tier-1 suite (``pyproject.toml`` ``testpaths``), so the
paper's verdict checks fail the suite when one flips.  The ``benchmark``
fixture below calls each function once: where pytest-benchmark is
installed it is that plugin's fixture with its timing off, elsewhere a
stand-in with the same calling surface.  Run on their own with::

    pytest benchmarks/
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


class SingleCall:
    """The ``benchmark`` fixture's calling surface, minus the timing."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, **_timing):
        return fn(*args, **(kwargs or {}))


if importlib.util.find_spec("pytest_benchmark") is None:
    @pytest.fixture
    def benchmark() -> SingleCall:
        return SingleCall()
else:
    @pytest.fixture
    def benchmark(benchmark):
        # The plugin's own fixture, disabled: one call, no timing rounds.
        benchmark.disabled = True
        return benchmark


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir: Path, name: str, lines: list[str]) -> None:
    """Print a result block and persist it for EXPERIMENTS.md."""
    text = "\n".join(lines)
    print(f"\n===== {name} =====")
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n")
