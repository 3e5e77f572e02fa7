"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload des-numeric --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs a fixed amount of the same work once as a warm-up,
then twice untraced alternating with twice with per-layer spans
installed (:mod:`perfbench.tracing`), and reports the per-layer metrics.  Every run checks the outputs it
produces; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

#: BLAS/OpenMP thread pins, set before numpy loads: the numerics, the
#: daemon's pool workers and the clients share the host's cores
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: scratch space inside the checkout (cache roots of campaign/serve)
WORKDIR = ".perfbench-work"

END_TO_END_UNITS = {"setup_s": "s", "slow_op_ms": "ms", "fast_op_ms": "ms",
                    "work_per_s": "1/s", "peak_rss_mb": "MB"}

_clock = time.perf_counter


def _root() -> Path:
    return Path(__file__).resolve().parent.parent


# ------------------------------------------------------------ provenance
def _blas() -> dict:
    """Name, version and live thread count of the BLAS numpy loaded."""
    import ctypes

    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    libs = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            if "blas" in Path(path).name.lower() and ".so" in path:
                libs.add(path)
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                info["library"] = Path(lib).name
                return info
    return info


def _source_digest(root: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        sha.update(str(path.relative_to(root)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(root: Path, workload) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": _git_commit(root),
        "source_digest": _source_digest(root),
        "workers": workload.workers,
        "clients": workload.clients,
    }


# -------------------------------------------------------------- harness
def _import_probe(root: Path, modules: tuple[str, ...]) -> None:
    """Import the workload's modules in a fresh interpreter (the start-up
    cost every CLI invocation pays)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    code = "import " + ", ".join(modules)
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120, capture_output=True)


def run_untraced(workload, root: Path, seconds: float) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        _, wall, factor = workload.measure(
            lambda: (_import_probe(root, workload.imports),
                     workload.prepare()))
        setups.append(wall * factor)
    workload.reset_samples()
    deadline = _clock() + seconds
    while _clock() < deadline:
        workload.round()
    metrics = workload.metrics()
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = {key[5:]: round(median(values), 6)
           for key, values in sorted(workload.samples.items())
           if key.startswith("wall:")}
    print(f"perfbench host speed {median(workload.samples['host_speed']):.4f}"
          f" of nominal; wall-clock medians (ms, not normalized) "
          f"{json.dumps(raw)}", flush=True)
    workload.finish()
    return metrics


def _pass(workload) -> tuple[float, float]:
    """``prepare`` plus one round, a fixed amount of work so that counts
    repeat; returns the pass's wall seconds and its host-speed factor."""
    workload.reset_samples()
    _, wall, factor = workload.measure(
        lambda: (workload.prepare(), workload.round()))
    return wall, factor


def run_traced(workload) -> dict:
    from perfbench.layers import layer_metrics
    from perfbench.tracing import Tracer, install_repro_layers

    # An untimed pass pays the first imports and first touches, so the
    # untraced and traced passes that alternate after it start alike.
    _pass(workload)
    untraced, traced, passes = [], [], []
    for _ in range(2):
        wall, factor = _pass(workload)
        untraced.append(wall * factor)
        tracer = Tracer()
        install_repro_layers(tracer)
        try:
            wall, factor = _pass(workload)
            extra = dict(workload.pass_stats)
            extra.update(workload.server_stats())
            hit_tail = workload.hit_tail()
        finally:
            tracer.restore()
        traced.append(wall * factor)
        passes.append(layer_metrics(workload, tracer.totals(), extra, wall,
                                    hit_tail))
    workload.finish()
    (_first, counts_a), (metrics, counts_b) = passes
    repeat = counts_a == counts_b
    workload.check(repeat, "per-layer counts differ between traced passes: "
                   + ", ".join(sorted(k for k in counts_a
                                      if counts_a[k] != counts_b.get(k))))
    metrics["trace.counts_repeat"] = 1 if repeat else 0
    metrics["trace.overhead_pct"] = \
        100.0 * (median(traced) / median(untraced) - 1.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=("des-numeric", "des-skeleton", "campaign",
                                 "serve-mixed"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = _root()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {root / 'src'}",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    os.environ.pop("REPRO_SANITIZE", None)
    os.environ["REPRO_CACHE_DIR"] = "off"
    sys.path[:0] = [str(root / "src"), str(root)]

    from perfbench.layers import PER_LAYER_UNITS
    from perfbench.workloads import WORKLOADS

    goldens = json.loads((root / "perfbench" / "goldens.json").read_text())
    workdir = root / WORKDIR
    workdir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=workdir))
    workload = WORKLOADS[args.workload](args.seed, scratch, goldens)
    print("perfbench host " + json.dumps(provenance(root, workload),
                                         sort_keys=True), flush=True)
    try:
        if args.trace:
            metrics = run_traced(workload)
            units = PER_LAYER_UNITS
        else:
            metrics = run_untraced(workload, root, args.seconds)
            units = END_TO_END_UNITS
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
    for message in workload.messages:
        print(f"perfbench check failed: {message}", flush=True)
    for name in sorted(units):
        print(f"perfbench {name:<44} {metrics[name]:>16.6g} {units[name]}")
    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
