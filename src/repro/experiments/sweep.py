"""Parallel campaign executor: the paper grid across worker processes.

``repro sweep`` drives a whole evaluation campaign — by default the full
§5 grid (2 algorithms x 4 matrix sizes x Table-1 rank/shape configs)
through the analytic evaluator, or with ``--quick`` a validation-scale
grid through the full monitored DES pipeline — through a
``multiprocessing`` pool (``--jobs N``).

Every task is routed through the content-addressed result cache of
:mod:`repro.experiments.cache`: a completed configuration is skipped on
re-runs (across processes and across sessions), and any edit to the
calibration constants or the machine spec changes the model fingerprint
and transparently invalidates every stored entry.  Workers share one
cache directory safely — entries are written atomically and identical
inputs produce identical bytes.

The worker pool uses the ``fork`` start method (POSIX): tasks are plain
picklable tuples, results are plain dicts, and the parent's environment
(including ``REPRO_CACHE_DIR``) is inherited.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import time
from dataclasses import dataclass

from repro.cluster.placement import LoadShape
from repro.experiments.cache import (
    default_result_cache,
    model_fingerprint,
    result_to_dict,
)
from repro.experiments.configs import EvaluationGrid, PAPER_REPETITIONS

#: validation-scale DES points for ``--quick`` (algorithm-agnostic part)
QUICK_POINTS: tuple[tuple[int, int], ...] = ((288, 4), (288, 8), (432, 8))
QUICK_REPETITIONS = 3


@dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work (picklable, deterministic).

    The trailing optional fields are the declarative-config extensions
    (``repro run``); their defaults reproduce the constructor-driven
    paths byte-for-byte — ``_task_config`` only emits the extra cache-key
    entries when they deviate, so legacy cache addresses are preserved.
    """

    mode: str  # "analytic" (paper scale) | "monitored" (validation DES)
    #          # | "skeleton" (exact-skeleton DES, paper scale)
    algorithm: str
    n: int
    ranks: int
    shape_value: str
    repetitions: int
    seed: int = 0
    #: explicit machine; None = the mode's builtin default (Marconi A3
    #: for analytic, the per-task validation machine for monitored)
    machine: object = None
    #: package power cap in watts (analytic mode only; None = uncapped)
    power_cap_w: float | None = None
    #: canonical non-default solver-option fields, e.g. (("nb", 16),)
    #: — monitored mode only, part of the cache key when non-empty
    solver_options: tuple = ()
    #: write per-repetition Chrome traces here (observer only: results
    #: and cache addresses are unaffected; traces need a cold run)
    trace_dir: str | None = None

    @property
    def label(self) -> str:
        cap = f"-cap{self.power_cap_w:g}" if self.power_cap_w else ""
        return (f"{self.algorithm}-n{self.n}-p{self.ranks}"
                f"-{self.shape_value}{cap}")


def paper_tasks() -> list[SweepTask]:
    """The full §5.1 evaluation grid, analytic mode."""
    return [
        SweepTask("analytic", c.algorithm, c.n, c.ranks, c.shape.value,
                  PAPER_REPETITIONS)
        for c in EvaluationGrid()  # repro: allow[CFG001] -- canonical path
    ]


def quick_tasks() -> list[SweepTask]:
    """Validation-scale monitored-DES grid (the expensive-per-task mode)."""
    return [
        SweepTask("monitored", algorithm, n, ranks, LoadShape.FULL.value,
                  QUICK_REPETITIONS)
        for algorithm in ("ime", "scalapack")
        for (n, ranks) in QUICK_POINTS
    ]


def _task_machine(task: SweepTask):
    from repro.cluster.machine import marconi_a3, small_test_machine

    if task.machine is not None:
        return task.machine
    if task.mode in ("analytic", "skeleton"):
        return marconi_a3()
    return small_test_machine(cores_per_socket=max(1, task.ranks // 2))


def _task_config(task: SweepTask) -> dict:
    """The cache key for one task (model inputs live in the fingerprint).

    The config-driven extensions append keys **only when set**, so every
    constructor-era task keeps its historical cache address; a custom
    machine is covered by the model fingerprint, and ``trace_dir`` is a
    pure observer that must not (and does not) move the address.
    """
    config = {
        "mode": task.mode,
        "algorithm": task.algorithm,
        "n": task.n,
        "ranks": task.ranks,
        "shape": task.shape_value,
        "repetitions": task.repetitions,
        "seed": task.seed,
    }
    if task.power_cap_w is not None:
        config["power_cap_w"] = task.power_cap_w
    if task.solver_options:
        config["solver_options"] = {k: v for k, v in task.solver_options}
    return config


def task_from_config(config: dict) -> SweepTask:
    """Rebuild a SweepTask from its canonical cache-key config.

    The inverse of :func:`_task_config` for the wire protocol
    (:mod:`repro.serve`): a client that echoes a config dict from a
    ``/run`` response gets back exactly the task — and therefore exactly
    the cache address — it came from.  Raises ``ValueError`` for
    unknown keys, missing fields, or a config that does not round-trip
    (custom machines and trace dirs are not expressible here; those
    travel as full YAML specs through ``/run``).
    """
    required = ("mode", "algorithm", "n", "ranks", "shape", "repetitions",
                "seed")
    allowed = set(required) | {"power_cap_w", "solver_options"}
    unknown = sorted(set(config) - allowed)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    missing = sorted(k for k in required if k not in config)
    if missing:
        raise ValueError(f"missing config key(s): {', '.join(missing)}")
    LoadShape(config["shape"])  # reject unknown shapes early
    solver_options = config.get("solver_options", {})
    if not isinstance(solver_options, dict):
        raise ValueError("solver_options must be a mapping")
    task = SweepTask(
        mode=config["mode"],
        algorithm=config["algorithm"],
        n=config["n"],
        ranks=config["ranks"],
        shape_value=config["shape"],
        repetitions=config["repetitions"],
        seed=config["seed"],
        power_cap_w=config.get("power_cap_w"),
        solver_options=tuple(sorted(solver_options.items())),
    )
    if _task_config(task) != config:
        raise ValueError("config does not round-trip to a canonical task")
    return task


def _task_solver_kwargs(task: SweepTask) -> dict:
    """Monitored-mode solver options → the framework's solver_kwargs."""
    if not task.solver_options:
        return {}
    fields = dict(task.solver_options)
    if task.algorithm == "ime":
        from repro.solvers.ime.parallel import ImeOptions

        return {"options": ImeOptions(**fields)}
    from repro.solvers.scalapack.pdgesv import ScalapackOptions

    return {"options": ScalapackOptions(**fields)}


def _compute_task(task: SweepTask):
    """Evaluate one task from scratch; returns a ConfigResult."""
    from repro.experiments.runner import run_analytic, run_monitored

    shape = LoadShape(task.shape_value)
    machine = _task_machine(task)
    if task.mode == "analytic":
        return run_analytic(task.algorithm, task.n, task.ranks, shape,
                            machine, repetitions=task.repetitions,
                            base_seed=task.seed,
                            power_cap_w=task.power_cap_w)
    if task.mode == "skeleton":
        from repro.experiments.runner import run_skeleton

        fields = dict(task.solver_options)
        return run_skeleton(task.algorithm, task.n, task.ranks, shape,
                            machine=machine,
                            repetitions=task.repetitions,
                            nb=fields.get("nb", 64))
    from repro.workloads.generator import generate_system

    tracer_factory, tracers = None, []
    if task.trace_dir is not None:
        from repro.obs import SpanTracer

        def tracer_factory():
            tracers.append(SpanTracer())
            return tracers[-1]

    solver_kwargs = _task_solver_kwargs(task)
    result = run_monitored(task.algorithm,
                           generate_system(task.n, seed=task.seed),
                           task.ranks, shape, machine,
                           repetitions=task.repetitions,
                           tracer_factory=tracer_factory,
                           **({"solver_kwargs": solver_kwargs}
                              if solver_kwargs else {}))
    if tracers:
        from pathlib import Path

        from repro.obs import write_chrome_trace

        out = Path(task.trace_dir)
        out.mkdir(parents=True, exist_ok=True)
        for rep, tracer in enumerate(tracers):
            write_chrome_trace(tracer, out / f"{task.label}-rep{rep}.json")
    return result


def run_task(task: SweepTask) -> dict:
    """Execute one task through the cache; returns a result row.

    Module-level so the multiprocessing pool can pickle it by reference.
    """
    t0 = time.perf_counter()
    cache = default_result_cache()
    cached = False
    result = None
    if cache is not None:
        from repro.perfmodel.calibration import DEFAULT_CALIBRATION

        config = _task_config(task)
        fingerprint = model_fingerprint(DEFAULT_CALIBRATION,
                                        _task_machine(task))
        result = cache.get(config, fingerprint)
        cached = result is not None
    if result is None:
        result = _compute_task(task)
        if cache is not None:
            cache.put(config, fingerprint, result)
    # Long campaigns walk many (n, ranks) shapes; the module-level memo
    # tables (tree shapes, block-cyclic maps, ownership permutations)
    # are keyed by them and would otherwise grow without bound.  Within
    # a task nothing is evicted, so hit rates are unchanged.
    from repro.memo import reset_hot_caches

    reset_hot_caches()
    wall = time.perf_counter() - t0
    row = {"label": task.label, "cached": cached, "wall_s": wall}
    row.update(result_to_dict(result))
    return row


def run_sweep(jobs: int = 1, quick: bool = False,
              tasks: list[SweepTask] | None = None,
              progress=None) -> dict:
    """Run a sweep; returns ``{"rows": [...], "wall_s": ..., ...}``.

    ``jobs`` > 1 fans tasks out over a fork-based process pool; rows come
    back in the deterministic task order regardless of completion order.
    """
    if tasks is None:
        tasks = quick_tasks() if quick else paper_tasks()
    t0 = time.perf_counter()
    if jobs <= 1 or len(tasks) <= 1:
        rows = []
        for task in tasks:
            rows.append(run_task(task))
            if progress is not None:
                progress(rows[-1])
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=min(jobs, len(tasks))) as pool:
            indexed = pool.imap_unordered(
                _run_indexed, list(enumerate(tasks))
            )
            rows = [None] * len(tasks)
            for i, row in indexed:
                rows[i] = row
                if progress is not None:
                    progress(row)
    wall = time.perf_counter() - t0
    return {
        "grid": "quick" if quick else "paper",
        "jobs": jobs,
        "tasks": len(tasks),
        "from_cache": sum(1 for r in rows if r["cached"]),
        "wall_s": wall,
        "rows": rows,
    }


def _run_indexed(item: tuple[int, SweepTask]) -> tuple[int, dict]:
    i, task = item
    return i, run_task(task)


def make_progress(total: int, quiet: bool = False):
    """Build the interactive progress callback, or ``None`` when silenced.

    Emits one ``done/total (cache hits, ETA)`` line per completed task.
    Silenced by ``--quiet`` and whenever stdout is not a TTY, so piped
    output and CI logs see only the final table or JSON report.  The ETA
    is the naive completed-rate extrapolation — good enough to answer
    "minutes or hours?" on a long campaign, which is all it is for.
    """
    import sys

    if quiet or not sys.stdout.isatty():
        return None
    state = {"done": 0, "hits": 0, "t0": time.perf_counter()}

    def progress(row: dict) -> None:
        state["done"] += 1
        if row["cached"]:
            state["hits"] += 1
        done = state["done"]
        elapsed = time.perf_counter() - state["t0"]  # repro: allow[DET101] -- ETA reporting, never modeled
        eta = elapsed / done * (total - done)
        print(f"  {done}/{total} "
              f"({state['hits']} cache hits, ETA {eta:.0f}s)  "
              f"{row['label']} "
              f"[{'cache' if row['cached'] else 'run'}] "
              f"{row['wall_s']:.3f}s", flush=True)

    return progress


def format_table(report: dict) -> str:
    header = (f"{'config':<34} {'mode':<10} {'T_mean s':>10} "
              f"{'E_mean J':>12} {'P W':>8} {'cache':>6} {'wall s':>8}")
    lines = [header, "-" * len(header)]
    for row in report["rows"]:
        power = (row["mean_total_j"] / row["mean_duration"]
                 if row["mean_duration"] else 0.0)
        lines.append(
            f"{row['label']:<34} "
            f"{'hit' if row['cached'] else 'run':<10} "
            f"{row['mean_duration']:>10.3f} {row['mean_total_j']:>12.1f} "
            f"{power:>8.1f} {str(row['cached']).lower():>6} "
            f"{row['wall_s']:>8.3f}"
        )
    lines.append(
        f"{report['tasks']} configs ({report['grid']} grid), "
        f"{report['from_cache']} from cache, jobs={report['jobs']}, "
        f"total wall {report['wall_s']:.2f}s"
    )
    return "\n".join(lines)


def describe_cache() -> str:
    """One startup log line: resolved cache root + calibration hash.

    Both ``repro sweep`` and ``repro run`` print this before the first
    task so warm-vs-cold behaviour is diagnosable from logs alone.
    """
    from repro.experiments.cache import (
        calibration_fingerprint,
        default_result_cache,
    )
    from repro.perfmodel.calibration import DEFAULT_CALIBRATION

    fingerprint = calibration_fingerprint(DEFAULT_CALIBRATION)
    cache = default_result_cache()
    if cache is None:
        return (f"cache: disabled ($REPRO_CACHE_DIR) "
                f"[calibration {fingerprint[:12]}]")
    return (f"cache: {cache.root.resolve()} "
            f"[calibration {fingerprint[:12]}]")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes (default 1 = in-process)")
    parser.add_argument("--quick", action="store_true",
                        help="validation-scale DES grid instead of the "
                             "full analytic paper grid")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-task progress lines "
                             "(they are also suppressed when stdout "
                             "is not a TTY)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="also write the report JSON to a file")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="cache root (default .repro-cache/, or "
                             "$REPRO_CACHE_DIR; 'off' disables)")


def run_from_args(args) -> int:
    import sys

    if args.cache_dir is not None:
        import os

        os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    print(describe_cache(), file=sys.stderr, flush=True)
    tasks = quick_tasks() if args.quick else paper_tasks()
    report = run_sweep(
        jobs=args.jobs, quick=args.quick, tasks=tasks,
        progress=(None if args.json else
                  make_progress(len(tasks), quiet=args.quiet)),
    )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(format_table(report))
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0
