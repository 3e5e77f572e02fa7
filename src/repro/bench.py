"""Wall-clock benchmark of the simulator itself.

The paper's sweeps reach n = 34560 across the Table 1 rank counts, so the
simulator's own speed — not the modeled virtual time — is what caps how
far the figure suite and the paper-scale skeletons can go.  This module
times end-to-end IMe and ScaLAPACK jobs at several ``(n, ranks)`` points,
in both collective modes (``fast`` closed-form vs ``message`` per-hop),
and records the results in ``BENCH_simperf.json`` at the repo root so
every subsequent PR has a wall-clock trajectory to compare against.

Three front ends share this implementation: ``tools/bench_sim.py``,
``repro bench``, and the ``make bench`` / ``make bench-quick`` targets
(the latter is the CI guard: quick points only, fail when a modeled
quantity drifts between modes or from the committed baseline, or when
fast-path wall-clock regresses more than 2x against it).

See ``docs/performance.md`` for the file format and the fast-path
equivalence contract.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from dataclasses import dataclass
from pathlib import Path

from repro.cluster.machine import marconi_a3, small_test_machine
from repro.cluster.placement import LoadShape, place_ranks
from repro.hostinfo import host_note, host_stanza
from repro.runtime.job import Job
from repro.workloads.generator import generate_system

SCHEMA_VERSION = 1
BASELINE_NAME = "BENCH_simperf.json"
#: ``make bench-quick`` fails when current wall-clock exceeds baseline × this
REGRESSION_FACTOR = 2.0
#: simulated quantities ``--check`` requires to match bitwise, between
#: the two modes of a point and against the baseline
MODELED_FIELDS = ("virtual_s", "messages", "bytes", "total_energy_j")


@dataclass(frozen=True)
class BenchPoint:
    """One benchmarked configuration."""

    solver: str  # "ime" | "ime-ft" | "scalapack"
    #            # | "ime-xskel" | "scalapack-xskel" (exact skeletons)
    n: int
    ranks: int
    nb: int | None = None  # ScaLAPACK block size
    modes: tuple[str, ...] = ("fast", "message")
    quick: bool = False  # part of the bench-quick CI guard
    machine: str = "small"  # "small" | "marconi" (paper-scale points)

    @property
    def label(self) -> str:
        return f"{self.solver}-n{self.n}-p{self.ranks}"


#: ``scalapack-xskel`` is the headline point: the ScaLAPACK n = 4320,
#: 16-rank exact skeleton (pdgesv's complete schedule, no numerics —
#: see :mod:`repro.obs.symbolic`), which isolates the collective engine
#: the fast path accelerates.  The real-numerics points keep the
#: end-to-end trajectory honest: there the dense-solver flops on the
#: critical path bound the achievable speedup.
DEFAULT_POINTS: tuple[BenchPoint, ...] = (
    BenchPoint("ime", 1080, 4, quick=True),
    BenchPoint("ime-ft", 1080, 4, quick=True),
    BenchPoint("scalapack", 1080, 4, nb=40, quick=True),
    BenchPoint("ime", 2160, 8),
    BenchPoint("ime-ft", 2160, 8),
    BenchPoint("ime", 2160, 16),
    BenchPoint("scalapack", 2160, 16, nb=48, quick=True),
    BenchPoint("scalapack", 4320, 16, nb=48),
    BenchPoint("scalapack-xskel", 4320, 16, nb=48),
)

#: ``repro bench --skeleton``: the paper's largest matrix at Table-1 rank
#: counts on Marconi A3, through the *exact* skeletons (the full
#: communication schedule with bitwise-faithful wire sizes and flop
#: charges — see :mod:`repro.obs.symbolic`).  One machine, one sitting:
#: these are the points that prove the fast engines' closed forms carry the
#: DES to n = 34560.  Fast mode only — the message-level reference at
#: this scale is exactly what the closed forms exist to avoid.
PAPER_SKELETON_POINTS: tuple[BenchPoint, ...] = (
    BenchPoint("ime-xskel", 34560, 144, modes=("fast",), machine="marconi"),
    BenchPoint("ime-xskel", 34560, 576, modes=("fast",), machine="marconi"),
    BenchPoint("ime-xskel", 34560, 1296, modes=("fast",), machine="marconi"),
    BenchPoint("ime-xskel", 34560, 2304, modes=("fast",), machine="marconi"),
    BenchPoint("ime-xskel", 34560, 3188, modes=("fast",), machine="marconi"),
    BenchPoint("scalapack-xskel", 34560, 144, nb=64, modes=("fast",),
               machine="marconi"),
    BenchPoint("scalapack-xskel", 34560, 1296, nb=64, modes=("fast",),
               machine="marconi"),
    BenchPoint("scalapack-xskel", 34560, 2304, nb=64, modes=("fast",),
               machine="marconi"),
    BenchPoint("scalapack-xskel", 34560, 3188, nb=64, modes=("fast",),
               machine="marconi"),
)


def _make_program(point: BenchPoint, system):
    if point.solver == "ime":
        from repro.solvers.ime.parallel import ime_parallel_program

        def program(ctx, comm):
            sys_arg = system if comm.rank == 0 else None
            return (yield from ime_parallel_program(ctx, comm,
                                                    system=sys_arg))
    elif point.solver == "ime-ft":
        from repro.solvers.ime.ft_parallel import ime_ft_parallel_program

        def program(ctx, comm):
            sys_arg = system if comm.rank == 0 else None
            return (yield from ime_ft_parallel_program(ctx, comm,
                                                       system=sys_arg))
    elif point.solver == "scalapack":
        from repro.solvers.scalapack.pdgesv import (
            ScalapackOptions,
            pdgesv_program,
        )
        options = ScalapackOptions(nb=point.nb or 8)

        def program(ctx, comm):
            sys_arg = system if comm.rank == 0 else None
            return (yield from pdgesv_program(ctx, comm, system=sys_arg,
                                              options=options))
    elif point.solver in ("ime-xskel", "scalapack-xskel"):
        from repro.obs.symbolic import (
            EXACT_SKELETON_PROGRAMS,
            SymbolicOptions,
        )
        fn = EXACT_SKELETON_PROGRAMS[point.solver.rsplit("-", 1)[0]]
        options = SymbolicOptions(nb=point.nb or 8)

        def program(ctx, comm):
            return (yield from fn(ctx, comm, n=point.n, options=options))
    else:
        raise ValueError(f"unknown solver: {point.solver}")
    return program


def run_point(point: BenchPoint, mode: str, seed: int = 0,
              repeats: int = 1) -> dict:
    """Time one end-to-end job; returns wall/virtual/traffic/energy.

    ``repeats`` > 1 reports the best-of-k wall time (standard benchmark
    practice — the minimum is the least noise-contaminated estimate of
    the code's speed).  The simulated quantities are deterministic and
    identical across repeats; only the wall clock varies.

    ``maxrss_kb`` records the process peak RSS *after* the point ran —
    a high-water mark, so per-point deltas in a suite are upper bounds;
    ``tools/bench_compare.py`` uses them to flag memory regressions.
    """
    if point.machine == "marconi":
        machine = marconi_a3()
        shape = LoadShape.FULL
    else:
        machine = small_test_machine(
            cores_per_socket=max(1, point.ranks // 2)
            if point.ranks % 2 == 0 else point.ranks
        )
        shape = LoadShape.FULL if point.ranks % 2 == 0 \
            else LoadShape.HALF_ONE_SOCKET
    # allow_tail: the paper grid's p=3188 leaves a partial last node.
    placement = place_ranks(point.ranks, shape, machine, allow_tail=True)
    # Skeleton points replay communication structure only — no matrix.
    system = (generate_system(point.n, seed=seed)
              if "skel" not in point.solver else None)
    wall = None
    for _ in range(max(1, repeats)):
        job = Job(machine, placement)
        job.sim.fast = (mode == "fast")
        program = _make_program(point, system)
        # The self-benchmark is the one place wall time is the measurand.
        t0 = time.perf_counter()
        result = job.run(program)
        dt = time.perf_counter() - t0  # repro: allow[DET101] -- wall-clock IS the measurand here
        wall = dt if wall is None else min(wall, dt)
    out = {
        "mode": mode,
        "wall_s": wall,
        "virtual_s": result.duration,
        "messages": result.traffic["messages"],
        "bytes": result.traffic["bytes"],
        "total_energy_j": result.total_energy_j,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    return out


def run_suite(points=None, quick: bool = False,
              modes: tuple[str, ...] | None = None,
              progress=None, repeats: int = 3,
              skeleton: bool = False) -> dict:
    """Run the benchmark suite; returns the ``BENCH_simperf.json`` dict.

    ``skeleton=True`` selects :data:`PAPER_SKELETON_POINTS` (the exact
    skeletons at the paper's n = 34560 on Marconi A3) instead of
    :data:`DEFAULT_POINTS`.
    """
    if points is None:
        points = PAPER_SKELETON_POINTS if skeleton else DEFAULT_POINTS
    # Per point, not per file: ``--write`` merges points by label, so one
    # file can hold points measured on different hosts.
    host = host_stanza()
    entries = []
    for point in points:
        if quick and not point.quick:
            continue
        results = {}
        for mode in (modes if modes is not None else point.modes):
            if progress is not None:
                progress(f"{point.label} [{mode}] ...")
            results[mode] = run_point(point, mode, repeats=repeats)
        entry = {
            "label": point.label,
            "solver": point.solver,
            "n": point.n,
            "ranks": point.ranks,
            "nb": point.nb,
            "quick": point.quick,
            "machine": point.machine,
            "host": host,
            "results": results,
        }
        if "fast" in results and "message" in results:
            entry["speedup"] = (
                results["message"]["wall_s"] / results["fast"]["wall_s"]
            )
        entries.append(entry)
    return {
        "schema": SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "points": entries,
    }


def format_table(report: dict) -> str:
    """Human-readable rendering of a benchmark report."""
    header = (f"{'point':<24} {'mode':<8} {'wall_s':>9} {'virtual_s':>11} "
              f"{'messages':>9} {'speedup':>8}")
    lines = [header, "-" * len(header)]
    for entry in report["points"]:
        speedup = entry.get("speedup")
        for i, (mode, r) in enumerate(entry["results"].items()):
            tail = (f"{speedup:>8.2f}" if speedup is not None and i == 0
                    else f"{'':>8}")
            lines.append(
                f"{entry['label'] if i == 0 else '':<24} {mode:<8} "
                f"{r['wall_s']:>9.3f} {r['virtual_s']:>11.4e} "
                f"{r['messages']:>9d} {tail}"
            )
    return "\n".join(lines)


def _drift(label: str, name: str, got: dict, ref_name: str,
           ref: dict) -> list[str]:
    return [f"{label}: {name} {key} {got.get(key)!r} != {ref_name} "
            f"{ref.get(key)!r}"
            for key in MODELED_FIELDS if got.get(key) != ref.get(key)]


def check_regression(current: dict, baseline: dict,
                     factor: float = REGRESSION_FACTOR) -> list[str]:
    """Compare a report against a baseline: modeled drift and fast wall.

    Every point of the *current* report fails on modeled drift: its
    ``fast`` and ``message`` results must agree on
    :data:`MODELED_FIELDS` (the fast-path equivalence contract), and
    each mode must reproduce the baseline's values exactly.  A point
    that also exists in the baseline fails when its fast-path
    wall-clock exceeds ``factor`` times the baseline's (``bench --quick
    --check`` reports only the quick points; ``bench --skeleton
    --check`` guards the paper-scale skeleton points the same way).
    Returns a list of human-readable failures (empty = pass).  Points
    or modes missing from either side are skipped — the guard is about
    regressions, not coverage.
    """
    base_by_label = {e["label"]: e for e in baseline.get("points", [])}
    failures = []
    for entry in current.get("points", []):
        label = entry["label"]
        results = entry.get("results", {})
        if "fast" in results and "message" in results:
            failures += _drift(label, "fast", results["fast"], "message",
                               results["message"])
        base = base_by_label.get(label)
        if base is None:
            continue
        base_results = base.get("results", {})
        for mode, got in results.items():
            if mode in base_results:
                failures += _drift(label, mode, got, f"baseline {mode}",
                                   base_results[mode])
        cur_fast = results.get("fast")
        base_fast = base_results.get("fast")
        if cur_fast is None or base_fast is None:
            continue
        if cur_fast["wall_s"] > factor * base_fast["wall_s"]:
            failures.append(
                f"{label}: fast wall {cur_fast['wall_s']:.3f}s "
                f"> {factor:.1f}x baseline {base_fast['wall_s']:.3f}s "
                f"({host_note(base.get('host'))})"
            )
    return failures


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the benchmark options (shared with ``repro bench``)."""
    parser.add_argument("--quick", action="store_true",
                        help="only the small CI-guard points")
    parser.add_argument("--skeleton", action="store_true",
                        help="the paper-scale exact-skeleton points "
                             "(n=34560 on Marconi A3, fast mode only)")
    parser.add_argument("--modes", default=None,
                        help="comma-separated subset of fast,message")
    parser.add_argument("--only", default=None, metavar="LABELS",
                        help="comma-separated point labels to run (a "
                             "subset of the selected suite); combined "
                             "with --write this updates just those "
                             "points in the baseline")
    parser.add_argument("--repeats", type=int, default=None,
                        help="best-of-k wall-clock per point (default 3; "
                             "1 for the --skeleton paper-scale suite)")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON instead of a table")
    parser.add_argument("--table", action="store_true",
                        help="print the human-readable table (default)")
    parser.add_argument("--write", metavar="PATH", nargs="?",
                        const=BASELINE_NAME, default=None,
                        help=f"write the report (default {BASELINE_NAME}); "
                             "an existing file is merged by point label, "
                             "so partial suites update their points only")
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1) when a modeled quantity "
                             "differs between modes or from the committed "
                             "baseline, or fast wall-clock regresses "
                             f">{REGRESSION_FACTOR:g}x vs it")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="baseline JSON for --check "
                             f"(default: {BASELINE_NAME} at the repo root)")


def build_parser(prog: str = "bench_sim") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Time end-to-end simulated solver runs (see "
                    "docs/performance.md).",
    )
    add_arguments(parser)
    return parser


def _default_baseline_path() -> Path:
    return Path(__file__).resolve().parents[2] / BASELINE_NAME


def merge_reports(base: dict, new: dict) -> dict:
    """Merge two reports by point label: ``new`` wins on collisions,
    ``base``-only points are kept in their original order.  This is how
    ``--write`` updates the committed baseline from a partial suite
    (e.g. ``--skeleton``) without dropping the other points."""
    by_label = {e["label"]: e for e in base.get("points", [])}
    by_label.update({e["label"]: e for e in new.get("points", [])})
    merged = dict(new)
    merged["points"] = list(by_label.values())
    return merged


def run_from_args(args) -> int:
    """Execute a parsed benchmark invocation (CLI entry points share this)."""
    modes = tuple(args.modes.split(",")) if args.modes else None
    skeleton = getattr(args, "skeleton", False)
    repeats = getattr(args, "repeats", None)
    if repeats is None:
        # Paper-scale skeleton points run minutes each; one repeat is
        # the practical default there (override with --repeats).
        repeats = 1 if skeleton else 3
    points = None
    only = getattr(args, "only", None)
    if only:
        wanted = set(only.split(","))
        pool = PAPER_SKELETON_POINTS if skeleton else DEFAULT_POINTS
        points = tuple(p for p in pool if p.label in wanted)
        missing = wanted - {p.label for p in points}
        if missing:
            print(f"unknown point label(s): {', '.join(sorted(missing))}")
            return 2
    report = run_suite(points=points, quick=args.quick, modes=modes,
                       progress=lambda msg: print(msg, flush=True),
                       repeats=repeats,
                       skeleton=skeleton)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(format_table(report))
    if args.check:
        # Read before --write can merge this run into the same file.
        path = Path(args.baseline) if args.baseline \
            else _default_baseline_path()
        baseline = json.loads(path.read_text()) if path.exists() else None
    if args.write:
        out = Path(args.write)
        written = report
        if out.exists():
            written = merge_reports(json.loads(out.read_text()), report)
        out.write_text(json.dumps(written, indent=2) + "\n")
        print(f"wrote {args.write}")
    if args.check:
        if baseline is None:
            print(f"no baseline at {path}; nothing to check against")
            return 1
        failures = check_regression(report, baseline)
        if failures:
            for f in failures:
                print(f"REGRESSION: {f}")
            return 1
        print("bench-quick: within budget of committed baseline")
    return 0


def main(argv=None, prog: str = "bench_sim") -> int:
    return run_from_args(build_parser(prog).parse_args(argv))
