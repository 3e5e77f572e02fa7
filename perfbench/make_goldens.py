"""Regenerate ``perfbench/goldens.json`` (modeled quantities at the
default seed) from the workloads' own code paths.

Usage (from the repository root)::

    python3 perfbench/make_goldens.py [--check]

``--check`` compares instead of writing and exits 1 on any difference.
Modeled quantities are bit-stable by the program's contract, so a
difference means a change altered the model, not the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def compute() -> dict:
    from perfbench.workloads import (
        DEFAULT_SEED,
        DesNumeric,
        DesSkeleton,
        _grid_tasks,
        _modeled,
    )

    goldens: dict = {}
    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="goldens-", dir=work))
    try:
        numeric = DesNumeric(DEFAULT_SEED, scratch, {})
        numeric.prepare()
        skeleton = DesSkeleton(DEFAULT_SEED, scratch, {})
        for workload in (numeric, skeleton):
            goldens[workload.name] = {
                kind: _modeled(workload._run_job(kind)[0])
                for kind in sorted(workload.order)
            }
        from repro.experiments import runner, sweep

        os.environ["REPRO_CACHE_DIR"] = "off"
        runner._run_analytic_cached.cache_clear()
        report = sweep.run_sweep(jobs=1, tasks=_grid_tasks(DEFAULT_SEED))
        goldens["campaign"] = {
            row["label"]: [row["mean_duration"], row["mean_total_j"]]
            for row in report["rows"]}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return goldens


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/make_goldens.py")
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed file, write nothing")
    args = parser.parse_args(argv)
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    path = ROOT / "perfbench" / "goldens.json"
    goldens = compute()
    if args.check:
        same = json.loads(path.read_text()) == goldens
        print("goldens: match" if same else "goldens: DIFFER")
        return 0 if same else 1
    path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
